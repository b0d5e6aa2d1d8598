package provclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/prov"
)

// Bulk ingestion client. UploadBatch posts one atomic NDJSON batch to
// POST /api/v0/documents:batch.

// BatchLineError is one rejected NDJSON line reported by the service.
type BatchLineError struct {
	Line    int    `json:"line"`
	ID      string `json:"id,omitempty"`
	Message string `json:"error"`
}

// BatchError is an all-or-nothing batch rejection: nothing from the
// batch was stored, and Lines says why. It is an APIError, so
// IsRetryable and errors.As(*APIError) keep working.
type BatchError struct {
	APIError
	Lines []BatchLineError
}

// Unwrap exposes the embedded APIError so errors.As/Is see it.
func (e *BatchError) Unwrap() error { return &e.APIError }

func (e *BatchError) Error() string {
	if len(e.Lines) == 0 {
		return e.APIError.Error()
	}
	return fmt.Sprintf("%s (first: line %d: %s)", e.APIError.Error(), e.Lines[0].Line, e.Lines[0].Message)
}

// EncodeBatchLine frames one NDJSON batch line for a raw PROV-JSON
// payload (no trailing newline).
func EncodeBatchLine(id string, provJSON []byte) ([]byte, error) {
	return json.Marshal(struct {
		ID  string          `json:"id"`
		Doc json.RawMessage `json:"doc"`
	}{ID: id, Doc: provJSON})
}

// UploadBatch stores every document as one atomic batch: either the
// whole map is accepted (and durable together, one group commit
// server-side) or nothing is stored and the returned *BatchError lists
// the offending lines.
func (c *Client) UploadBatch(docs map[string]*prov.Document) error {
	return c.UploadBatchCtx(context.Background(), docs)
}

// UploadBatchCtx is UploadBatch bounded by ctx.
func (c *Client) UploadBatchCtx(ctx context.Context, docs map[string]*prov.Document) error {
	if len(docs) == 0 {
		return nil
	}
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var body bytes.Buffer
	for _, id := range ids {
		raw, err := docs[id].MarshalJSON()
		if err != nil {
			return fmt.Errorf("provclient: marshal %q: %w", id, err)
		}
		line, err := EncodeBatchLine(id, raw)
		if err != nil {
			return fmt.Errorf("provclient: encode %q: %w", id, err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodPost, "/api/v0/documents:batch", body.Bytes())
	if err != nil {
		return err
	}
	if status == http.StatusCreated {
		return nil
	}
	var rej struct {
		Error string           `json:"error"`
		Lines []BatchLineError `json:"line_errors"`
	}
	if jerr := json.Unmarshal(payload, &rej); jerr == nil && len(rej.Lines) > 0 {
		return &BatchError{
			APIError: APIError{Status: status, Message: rej.Error, RetryAfter: parseRetryAfter(hdr)},
			Lines:    rej.Lines,
		}
	}
	return apiError(payload, status, hdr)
}
