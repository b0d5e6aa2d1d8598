package netcdf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample() *File {
	f := &File{}
	dTime := f.AddDim("time", 5)
	dGPU := f.AddDim("gpu", 2)
	f.Attrs = append(f.Attrs,
		StrAttr("title", "yProv4ML metrics"),
		DoubleAttr("version", 1.5),
		IntAttr("n_runs", 3),
	)
	loss := make([]float64, 5)
	for i := range loss {
		loss[i] = 2.0 / float64(i+1)
	}
	f.AddVar(Var{
		Name: "loss", Type: Double, Dims: []int{dTime},
		Attrs: []Attr{StrAttr("units", "nats")},
		Data:  loss,
	})
	power := make([]float64, 10)
	for i := range power {
		power[i] = 300 + float64(i)
	}
	f.AddVar(Var{Name: "gpu_power", Type: Float, Dims: []int{dTime, dGPU}, Data: power})
	f.AddVar(Var{Name: "step", Type: Int, Dims: []int{dTime}, Data: []float64{0, 1, 2, 3, 4}})
	f.AddVar(Var{Name: "tag", Type: Char, Dims: []int{dGPU}, Text: "ab"})
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := buildSample()
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:3]) != "CDF" || raw[3] != 1 {
		t.Fatalf("bad magic: % x", raw[:4])
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Dims) != 2 || back.Dims[0].Name != "time" || back.Dims[1].Len != 2 {
		t.Fatalf("dims = %+v", back.Dims)
	}
	if len(back.Attrs) != 3 {
		t.Fatalf("attrs = %+v", back.Attrs)
	}
	if back.Attrs[0].Str != "yProv4ML metrics" {
		t.Errorf("title = %q", back.Attrs[0].Str)
	}
	if back.Attrs[1].Nums[0] != 1.5 {
		t.Errorf("version = %v", back.Attrs[1].Nums)
	}
	loss, ok := back.VarByName("loss")
	if !ok {
		t.Fatal("loss variable missing")
	}
	if len(loss.Data) != 5 || loss.Data[4] != 2.0/5 {
		t.Errorf("loss data = %v", loss.Data)
	}
	if loss.Attrs[0].Str != "nats" {
		t.Errorf("loss units = %+v", loss.Attrs)
	}
	tag, ok := back.VarByName("tag")
	if !ok || tag.Text != "ab" {
		t.Errorf("tag = %+v", tag)
	}
	step, _ := back.VarByName("step")
	if step.Type != Int || step.Data[3] != 3 {
		t.Errorf("step = %+v", step)
	}
}

func TestFloatPrecisionRoundTrip(t *testing.T) {
	f := &File{}
	d := f.AddDim("x", 3)
	f.AddVar(Var{Name: "v", Type: Float, Dims: []int{d}, Data: []float64{0.5, -1.25, 1e10}})
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := back.VarByName("v")
	want := []float64{0.5, -1.25, float64(float32(1e10))}
	for i := range want {
		if v.Data[i] != want[i] {
			t.Errorf("v[%d] = %v, want %v", i, v.Data[i], want[i])
		}
	}
}

func TestScalarVariable(t *testing.T) {
	f := &File{}
	f.AddVar(Var{Name: "pi", Type: Double, Data: []float64{math.Pi}})
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := back.VarByName("pi")
	if !ok || v.Data[0] != math.Pi {
		t.Fatalf("pi = %+v", v)
	}
}

func TestEmptyFile(t *testing.T) {
	f := &File{}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Dims)+len(back.Vars)+len(back.Attrs) != 0 {
		t.Fatalf("empty file round-trip = %+v", back)
	}
}

func TestEncodeSizeMismatch(t *testing.T) {
	f := &File{}
	d := f.AddDim("x", 4)
	f.AddVar(Var{Name: "v", Type: Double, Dims: []int{d}, Data: []float64{1}})
	if _, err := f.Encode(); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestEncodeBadDimID(t *testing.T) {
	f := &File{}
	f.AddVar(Var{Name: "v", Type: Double, Dims: []int{7}, Data: []float64{1}})
	if _, err := f.Encode(); err == nil {
		t.Fatal("bad dim id must fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw, err := buildSample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 4, 8, 20, len(raw) / 2, len(raw) - 3} {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Errorf("decode of %d-byte prefix must fail", cut)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode([]byte("NOPE....")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := Decode([]byte{'C', 'D', 'F', 2, 0, 0, 0, 0}); err == nil {
		t.Fatal("CDF-2 must be rejected")
	}
}

func TestAlignment(t *testing.T) {
	// A char variable with length not divisible by 4 must not corrupt
	// the following variable.
	f := &File{}
	d3 := f.AddDim("three", 3)
	d2 := f.AddDim("two", 2)
	f.AddVar(Var{Name: "s", Type: Char, Dims: []int{d3}, Text: "abc"})
	f.AddVar(Var{Name: "v", Type: Double, Dims: []int{d2}, Data: []float64{1.5, -2.5}})
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := back.VarByName("v")
	if v.Data[0] != 1.5 || v.Data[1] != -2.5 {
		t.Fatalf("alignment bug: v = %v", v.Data)
	}
	if v.Type != Double {
		t.Fatalf("v type = %v", v.Type)
	}
}

func TestShortAndByteTypes(t *testing.T) {
	f := &File{}
	d := f.AddDim("x", 3)
	f.AddVar(Var{Name: "s", Type: Short, Dims: []int{d}, Data: []float64{-2, 0, 30000}})
	f.AddVar(Var{Name: "b", Type: Byte, Dims: []int{d}, Data: []float64{-128, 0, 127}})
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := back.VarByName("s")
	b, _ := back.VarByName("b")
	if s.Data[0] != -2 || s.Data[2] != 30000 {
		t.Errorf("short = %v", s.Data)
	}
	if b.Data[0] != -128 || b.Data[2] != 127 {
		t.Errorf("byte = %v", b.Data)
	}
}

func TestQuickDoubleRoundTrip(t *testing.T) {
	f := func(values []float64) bool {
		for i, v := range values {
			if math.IsNaN(v) {
				values[i] = 0
			}
		}
		if len(values) == 0 {
			values = []float64{0}
		}
		if len(values) > 500 {
			values = values[:500]
		}
		nc := &File{}
		d := nc.AddDim("n", len(values))
		nc.AddVar(Var{Name: "v", Type: Double, Dims: []int{d}, Data: values})
		raw, err := nc.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(raw)
		if err != nil {
			return false
		}
		v, ok := back.VarByName("v")
		if !ok || len(v.Data) != len(values) {
			return false
		}
		for i := range values {
			if v.Data[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	// Random mutations of a valid file must never panic the decoder.
	raw, err := buildSample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		mut := append([]byte(nil), raw...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = Decode(mut) // must not panic
	}
}

// Attribute builders and a variable lookup that only the tests use.

// DoubleAttr builds a double attribute.
func DoubleAttr(name string, values ...float64) Attr {
	return Attr{Name: name, Type: Double, Nums: values}
}

// IntAttr builds an int attribute.
func IntAttr(name string, values ...int32) Attr {
	nums := make([]float64, len(values))
	for i, v := range values {
		nums[i] = float64(v)
	}
	return Attr{Name: name, Type: Int, Nums: nums}
}

// VarByName returns the variable with the given name.
func (f *File) VarByName(name string) (*Var, bool) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], true
		}
	}
	return nil, false
}
