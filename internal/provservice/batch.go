package provservice

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provstore"
)

// POST /api/v0/documents:batch — bulk ingestion.
//
// The request body is NDJSON: one {"id": "...", "doc": {PROV-JSON}}
// object per line, blank lines ignored. Lines are decoded as they
// arrive, each into the one pooled line buffer of the request
// (lineReader), subject to a per-line cap (MaxLineBytes) on top of the
// middleware's total body cap (MaxBodyBytes). A line is read by one
// scan: the envelope's scanner hands its "doc" value to the PROV-JSON
// transcoder in place, which checks the document and writes the binary
// blob the store keeps, so every byte of the line is looked at once and
// no *prov.Document is made. Nothing of a line outlives its read: the
// blob and the id are copies.
//
// The batch is atomic: every line must parse and every document must be
// valid, or the whole request is rejected with one error entry per
// failing line and nothing is stored. Accepted batches commit through
// one provstore Apply — one WAL record, one group-commit fsync — so a
// crash can never surface part of a batch.

// batchLineError reports one rejected NDJSON line (1-based).
type batchLineError struct {
	Line  int    `json:"line"`
	ID    string `json:"id,omitempty"`
	Error string `json:"error"`
}

// decodeBatchLine reads one NDJSON request line in a single validating
// scan: the "id" string, and the "doc" value transcoded where it stands
// (transcodeBlob). It reads the line as encoding/json read it into a
// struct with those two fields: member names match whatever their case
// ("ID", "Doc"), unknown members are skipped, of a repeated member the
// last one counts, a null id leaves the id as it was, and a line that
// is null is a line with neither member.
//
// err is a syntax error anywhere in the line, or an id that is no
// string. Otherwise invalid is what the transcoder found wrong with a
// doc — no PROV-JSON document (null and scalars included), or one
// Validate rejects — and doc and invalid are both nil when the line
// has no doc member.
func decodeBatchLine(line []byte) (id string, doc []byte, invalid, err error) {
	sc := jsonscan.New(line)
	if sc.Peek() == 'n' {
		if err := sc.Literal("null"); err != nil {
			return "", nil, nil, err
		}
		return "", nil, nil, sc.End()
	}
	if err := sc.OpenObject(); err != nil {
		return "", nil, nil, err
	}
	var badID error
	for {
		key, ok, err := sc.NextKey()
		if err != nil {
			return "", nil, nil, err
		}
		if !ok {
			break
		}
		name := sc.Bytes(key)
		isID := bytes.EqualFold(name, []byte("id"))
		switch {
		case isID && sc.Peek() == '"':
			t, err := sc.String()
			if err != nil {
				return "", nil, nil, err
			}
			id = sc.Text(t)
			continue
		case isID && sc.Peek() != 'n':
			badID = errors.New(`member "id" is not a string`)
		case bytes.EqualFold(name, []byte("doc")):
			if doc, _, invalid, err = transcodeBlob(&sc); err != nil {
				return "", nil, nil, err
			}
			continue
		}
		if err := sc.Skip(); err != nil {
			return "", nil, nil, err
		}
	}
	if err := sc.End(); err != nil {
		return "", nil, nil, err
	}
	return id, doc, invalid, badID
}

// transcodeBlob transcodes the PROV-JSON document at sc's cursor
// (prov.TranscodeJSON) through pooled scratch and returns its blob
// exactly sized, as the store keeps it: append's slack would stay
// resident with the entry. blob is nil when invalid or err is set.
func transcodeBlob(sc *jsonscan.Scanner) (blob []byte, st prov.Stats, invalid, err error) {
	buf := transcodeScratch.Get().(*[]byte)
	out, st, invalid, err := prov.TranscodeJSON((*buf)[:0], sc)
	if err == nil && invalid == nil {
		blob = make([]byte, len(out))
		copy(blob, out)
	}
	if cap(out) <= maxPooledLineBuf {
		*buf = out[:0]
		transcodeScratch.Put(buf)
	}
	return blob, st, invalid, err
}

// transcodeScratch pools the buffers transcodeBlob writes into.
var transcodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// batchLine reads one non-blank line of a batch whose earlier lines
// were accepted under the ids in seen: the id and document blob the
// line contributes, or the error it is rejected with (and the id it
// names, if the envelope parsed). Of several things wrong with a line
// the first of these is reported: malformed JSON or a non-string id, no
// id, no doc, an id already in the batch, a doc that is no PROV-JSON
// document or that Validate rejects. The transcoder checks the document
// as it encodes it, so a structurally broken document is pinned to its
// line in the response.
func batchLine(line []byte, seen map[string]struct{}) (id string, doc []byte, lineErr string) {
	id, doc, invalid, err := decodeBatchLine(line)
	switch {
	case err != nil:
		return "", nil, "invalid JSON: " + err.Error()
	case id == "":
		return "", nil, "missing document id"
	case doc == nil && invalid == nil:
		return id, nil, "missing doc"
	}
	if _, dup := seen[id]; dup {
		return id, nil, fmt.Sprintf("duplicate id %q in batch", id)
	}
	if invalid != nil {
		return id, nil, "invalid PROV-JSON: " + invalid.Error()
	}
	return id, doc, ""
}

// jsonSpace is the whitespace JSON allows around a value. A line of
// nothing else is blank; any other byte is the scanner's to accept or
// reject (bytes.TrimSpace would also drop \v, \f, U+0085 and U+00A0).
const jsonSpace = " \t\r\n"

// maxBatchLineErrors bounds the per-line diagnostics kept (and
// marshaled back) for one rejected batch: the batch is already doomed
// after the first error, so once this many have accumulated the rest of
// the stream is not worth parsing — and an attacker-sized body of tiny
// invalid lines must not amplify into gigabytes of error entries.
const maxBatchLineErrors = 100

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "batch ingestion is POST-only")
		return
	}
	var ops []provstore.Op // request order
	seen := make(map[string]struct{})
	var lineErrs []batchLineError
	lr := newLineReader(r.Body)
	defer lr.release()
	// The "parse" span covers the whole NDJSON decode loop (reads are
	// interleaved with parsing, so they are inseparable here). Ended
	// explicitly after the loop so the store commit is not counted;
	// early-return error paths simply drop the span.
	parseSpan := obs.FromContext(r.Context()).StartSpan("parse")
	lineNo := 0
	for {
		lineNo++
		line, truncated, err := lr.next(s.maxLineBytes())
		if err != nil && err != io.EOF {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeErr(w, http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", mbe.Limit)
				return
			}
			writeErr(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		done := err == io.EOF
		line = bytes.Trim(line, jsonSpace) // blank lines are ignored
		switch {
		case truncated:
			lineErrs = append(lineErrs, batchLineError{Line: lineNo,
				Error: fmt.Sprintf("line exceeds %d bytes", s.maxLineBytes())})
		case len(line) > 0:
			id, doc, lineErr := batchLine(line, seen)
			if lineErr != "" {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, ID: id, Error: lineErr})
				break
			}
			seen[id] = struct{}{}
			ops = append(ops, provstore.Op{ID: id, Blob: doc})
			if max := s.maxBatchDocs(); len(ops) > max {
				writeErr(w, http.StatusRequestEntityTooLarge, "batch exceeds %d documents", max)
				return
			}
		}
		if len(lineErrs) >= maxBatchLineErrors {
			lineErrs = append(lineErrs, batchLineError{Line: lineNo + 1,
				Error: fmt.Sprintf("aborting after %d invalid lines", maxBatchLineErrors)})
			break
		}
		if done {
			break
		}
	}
	parseSpan.End()
	if len(lineErrs) > 0 {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]interface{}{
			"error":       fmt.Sprintf("batch rejected: %d invalid line(s), nothing stored", len(lineErrs)),
			"line_errors": lineErrs,
		})
		return
	}
	if len(ops) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch: no documents in request body")
		return
	}
	ids := make([]string, len(ops)) // request order: Apply re-sorts ops
	for i := range ops {
		ids[i] = ops[i].ID
	}
	if err := s.store.Apply(r.Context(), ops); err != nil {
		writeStoreErr(w, err, http.StatusUnprocessableEntity)
		return
	}
	s.setSeqHeader(w)
	writeJSON(w, http.StatusCreated, map[string]interface{}{"created": len(ids), "ids": ids})
}

// lineReader reads the lines of one NDJSON request body, each into the
// same buffer: a line is valid until the next call of next. Readers are
// recycled with their buffers through lineReaders, so once the pool is
// warm a request allocates no line storage at all.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
}

// lineReaders pools lineReaders. A buffer grown past maxPooledLineBuf
// (a huge line) is dropped rather than pinned in the pool, as
// provstore's record buffers are.
var lineReaders = sync.Pool{
	New: func() interface{} { return &lineReader{br: bufio.NewReader(nil)} },
}

const maxPooledLineBuf = 1 << 20

func newLineReader(body io.Reader) *lineReader {
	lr := lineReaders.Get().(*lineReader)
	lr.br.Reset(body)
	return lr
}

// release returns lr to the pool. No line it read may be used after.
func (lr *lineReader) release() {
	lr.br.Reset(nil)
	lr.buf = lr.buf[:0]
	if cap(lr.buf) > maxPooledLineBuf {
		lr.buf = nil
	}
	lineReaders.Put(lr)
}

// next reads one line (without its trailing newline) into lr's buffer,
// capped at limit content bytes — the line terminator ("\n" or "\r\n")
// does not count against the cap. An over-long line is consumed to its
// newline, keeps no bytes and is reported truncated, so parsing can
// continue on the next line with a per-line error instead of failing
// the whole stream. Returns io.EOF (possibly alongside a final
// unterminated line) at end of body.
func (lr *lineReader) next(limit int) (line []byte, truncated bool, err error) {
	lr.buf = lr.buf[:0]
	for {
		chunk, rerr := lr.br.ReadSlice('\n')
		if !truncated {
			lr.buf = append(lr.buf, chunk...)
			if len(lr.buf) > limit+2 { // room for a trailing \r\n within the cap
				lr.buf, truncated = lr.buf[:0], true
			}
		}
		switch rerr {
		case bufio.ErrBufferFull: // the line continues past the reader's buffer
			continue
		case nil, io.EOF: // hit the newline, or the end of the body
			if !truncated {
				if line = trimEOL(lr.buf); len(line) > limit {
					line, truncated = nil, true
				}
			}
			return line, truncated, rerr
		default:
			return nil, truncated, rerr
		}
	}
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line
}
