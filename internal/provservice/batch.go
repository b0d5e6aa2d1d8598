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
// arrive, into one pooled buffer per request (lineReader) that holds
// their bytes until the store has journaled them, subject to a per-line
// cap (MaxLineBytes) on top of the middleware's total body cap
// (MaxBodyBytes).
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

// scanBatchLine finds, in one NDJSON request line, the "id" string and
// the span of the "doc" value — a sub-slice of line, never a copy — in
// a single validating scan. It reads the line as encoding/json read it
// into a struct with those two fields: member names match whatever
// their case ("ID", "Doc"), unknown members are skipped, of a repeated
// member the last one counts, a null id leaves the id as it was, and a
// line that is null is a line with neither member. doc is nil when the
// line has no such member; a doc of the wrong type is the document
// decoder's to reject.
func scanBatchLine(line []byte) (id string, doc []byte, err error) {
	sc := jsonscan.New(line)
	if sc.Peek() == 'n' {
		if err := sc.Literal("null"); err != nil {
			return "", nil, err
		}
		return "", nil, sc.End()
	}
	if err := sc.OpenObject(); err != nil {
		return "", nil, err
	}
	var badID error
	for {
		key, ok, err := sc.NextKey()
		if err != nil {
			return "", nil, err
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
				return "", nil, err
			}
			id = sc.Text(t)
			continue
		case isID && sc.Peek() != 'n':
			badID = errors.New(`member "id" is not a string`)
		}
		sc.Peek()
		start := sc.Pos()
		if err := sc.Skip(); err != nil {
			return "", nil, err
		}
		if bytes.EqualFold(name, []byte("doc")) {
			doc = line[start:sc.Pos()]
		}
	}
	if err := sc.End(); err != nil {
		return "", nil, err
	}
	return id, doc, badID
}

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
	// Released on return, so only once Apply is done with the spans of
	// the reader's buffer the ops carry as Op.Raw.
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
		line = bytes.TrimSpace(line) // blank (or whitespace-only) lines are ignored
		switch {
		case truncated:
			lineErrs = append(lineErrs, batchLineError{Line: lineNo,
				Error: fmt.Sprintf("line exceeds %d bytes", s.maxLineBytes())})
		case len(line) > 0:
			id, raw, jerr := scanBatchLine(line)
			if jerr != nil {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, Error: "invalid JSON: " + jerr.Error()})
				break
			}
			if id == "" {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, Error: "missing document id"})
				break
			}
			if raw == nil {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, ID: id, Error: "missing doc"})
				break
			}
			if _, dup := seen[id]; dup {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, ID: id,
					Error: fmt.Sprintf("duplicate id %q in batch", id)})
				break
			}
			doc, perr := prov.ParseJSON(raw)
			if perr != nil {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, ID: id, Error: "invalid PROV-JSON: " + perr.Error()})
				break
			}
			// Validate here, not just in PutBatch, so a structurally
			// broken document is pinned to its line in the response.
			if _, verr := doc.Validate(); verr != nil {
				lineErrs = append(lineErrs, batchLineError{Line: lineNo, ID: id, Error: "invalid PROV-JSON: " + verr.Error()})
				break
			}
			// The wire bytes go through for the store to journal
			// verbatim: raw is a span of the request's line buffer,
			// capped at its own end so that nothing appended to it can
			// reach the next line, and left alone until Apply returns.
			seen[id] = struct{}{}
			ops = append(ops, provstore.Op{ID: id, Doc: doc, Raw: raw[:len(raw):len(raw)]})
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

// lineReader reads the lines of one NDJSON request body into one
// buffer, whose spans the batch handler hands the store as Op.Raw; they
// stay valid until release. A buffer that has to grow leaves the spans
// already handed out in its old array, which they keep alive, so growth
// never moves a line under its reader. Readers are recycled with their
// buffers through lineReaders, so once the pool is warm a request
// allocates no line storage at all.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
}

// lineReaders pools lineReaders. A buffer grown past maxPooledLineBuf
// (a huge batch) is dropped rather than pinned in the pool, as
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

// next reads one line (without its trailing newline), capped at limit
// content bytes — the line terminator ("\n" or "\r\n") does not count
// against the cap. The line is a span of lr's buffer ending at its own
// capacity, so appending to it cannot reach the next line. An over-long
// line is consumed to its newline, keeps no bytes and is reported
// truncated, so parsing can continue on the next line with a per-line
// error instead of failing the whole stream. Returns io.EOF (possibly
// alongside a final unterminated line) at end of body.
func (lr *lineReader) next(limit int) (line []byte, truncated bool, err error) {
	start := len(lr.buf)
	for {
		chunk, rerr := lr.br.ReadSlice('\n')
		if !truncated {
			lr.buf = append(lr.buf, chunk...)
			if len(lr.buf)-start > limit+2 { // room for a trailing \r\n within the cap
				lr.buf, truncated = lr.buf[:start], true
			}
		}
		switch rerr {
		case bufio.ErrBufferFull: // the line continues past the reader's buffer
			continue
		case nil, io.EOF: // hit the newline, or the end of the body
			if !truncated {
				if line = trimEOL(lr.buf[start:]); len(line) > limit {
					lr.buf, line, truncated = lr.buf[:start], nil, true
				}
			}
			return line[:len(line):len(line)], truncated, rerr
		default:
			lr.buf = lr.buf[:start]
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
