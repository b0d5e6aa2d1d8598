package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzFrameScan holds the stream scanner to parseFrame, the one
// definition of a valid frame. On any bytes nothing panics, and the
// StreamScanner returns exactly the frames parseFrame accepts at
// successive offsets, then io.EOF if those frames end where the bytes
// do and an error if they do not, and no record after that.
// EncodeFrame's output parses back to the sequence and payload it was
// given.
func FuzzFrameScan(f *testing.F) {
	two := EncodeFrame(EncodeFrame(nil, 1, []byte("first")), 2, []byte("second record"))
	corrupt := append([]byte(nil), two...)
	corrupt[recordHeader] ^= 0xFF
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1)
	huge = append(huge, make([]byte, recordHeader)...)
	for _, seed := range [][]byte{
		nil,
		EncodeFrame(nil, 7, nil),
		two,
		two[:len(two)-3],
		append(append([]byte(nil), two...), 0x13, 0x37),
		corrupt,
		huge,
		append(corrupt[:21:21], two...), // bad first frame, intact frames behind it
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Record
		off := 0
		for {
			seq, payload, n, status := parseFrame(data[off:])
			if status != frameOK {
				break
			}
			want = append(want, Record{Seq: seq, Payload: payload})
			off += n
		}
		clean := off == len(data)

		sc := NewStreamScanner(bytes.NewReader(data))
		for i, w := range want {
			rec, err := sc.Next()
			if err != nil {
				t.Fatalf("frame %d: %v, want the frame parseFrame accepts", i, err)
			}
			if rec.Seq != w.Seq || !bytes.Equal(rec.Payload, w.Payload) {
				t.Fatalf("frame %d: seq %d, %d payload bytes; parseFrame reads seq %d, %d bytes", i, rec.Seq, len(rec.Payload), w.Seq, len(w.Payload))
			}
		}
		_, end := sc.Next()
		switch {
		case clean && end != io.EOF:
			t.Fatalf("after the last frame, at the end of the bytes: %v, want io.EOF", end)
		case !clean && (end == nil || end == io.EOF):
			t.Fatalf("%d bytes after the last frame that parses: %v, want an error", len(data)-off, end)
		}
		for k := 0; k < 2; k++ {
			if rec, err := sc.Next(); err == nil {
				t.Fatalf("record seq %d returned after %v", rec.Seq, end)
			}
		}

		seq := uint64(len(data))*0x9E3779B97F4A7C15 + 1
		frame := EncodeFrame(nil, seq, data)
		gotSeq, payload, n, status := parseFrame(frame)
		if status != frameOK || gotSeq != seq || n != len(frame) || !bytes.Equal(payload, data) {
			t.Fatalf("EncodeFrame output parses as status %d, seq %d, n %d of %d", status, gotSeq, n, len(frame))
		}
	})
}
