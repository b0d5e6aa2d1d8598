package provclient

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provstore"
)

// Paging and streaming. The server's list/search/cross-lineage
// endpoints accept ?limit=&cursor= and return an opaque next_cursor
// while more results remain; they also stream newline-delimited JSON
// when asked with Accept: application/x-ndjson. The page methods here
// expose one page per call (cursor in, cursor out); the iterator
// methods (Documents, ListStream) hide the cursor loop behind
// iter.Seq2 so callers can just range over results.

// ListPage fetches one page of document ids. cursor is "" for the
// first page; next is "" on the final page and is otherwise passed to
// the next call. limit <= 0 lets the server choose its default page
// size.
func (c *Client) ListPage(ctx context.Context, cursor string, limit int) (ids []string, next string, err error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/documents?"+q.Encode(), nil)
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", apiError(payload, status, hdr)
	}
	var out struct {
		Documents  []string `json:"documents"`
		NextCursor string   `json:"next_cursor"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, "", err
	}
	return out.Documents, out.NextCursor, nil
}

// Documents iterates every document id, fetching pages of pageSize
// lazily as the caller consumes them. On a request error the iterator
// yields ("", err) once and stops; breaking out of the range stops
// fetching. pageSize <= 0 uses the server default.
func (c *Client) Documents(ctx context.Context, pageSize int) iter.Seq2[string, error] {
	if pageSize <= 0 {
		pageSize = 1000
	}
	return func(yield func(string, error) bool) {
		cursor := ""
		for {
			ids, next, err := c.ListPage(ctx, cursor, pageSize)
			if err != nil {
				yield("", err)
				return
			}
			for _, id := range ids {
				if !yield(id, nil) {
					return
				}
			}
			if next == "" {
				return
			}
			cursor = next
		}
	}
}

// SearchByTypePage fetches one page of type-search results (see
// ListPage for the cursor contract).
func (c *Client) SearchByTypePage(ctx context.Context, typeName, cursor string, limit int) (results []provstore.SearchResult, next string, err error) {
	q := url.Values{}
	q.Set("type", typeName)
	return c.searchPage(ctx, q, cursor, limit)
}

// SearchByAttrPage fetches one page of attribute-search results.
func (c *Client) SearchByAttrPage(ctx context.Context, key, value, cursor string, limit int) (results []provstore.SearchResult, next string, err error) {
	q := url.Values{}
	q.Set("key", key)
	q.Set("value", value)
	return c.searchPage(ctx, q, cursor, limit)
}

func (c *Client) searchPage(ctx context.Context, q url.Values, cursor string, limit int) ([]provstore.SearchResult, string, error) {
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/search?"+q.Encode(), nil)
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", apiError(payload, status, hdr)
	}
	var out struct {
		Results    []provstore.SearchResult `json:"results"`
		NextCursor string                   `json:"next_cursor"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, "", err
	}
	return out.Results, out.NextCursor, nil
}

// CrossLineagePage fetches one page of store-wide lineage results.
func (c *Client) CrossLineagePage(ctx context.Context, node prov.QName, dir provstore.LineageDirection, depth int, cursor string, limit int) (nodes []provstore.CrossNode, next string, err error) {
	q := url.Values{}
	q.Set("node", string(node))
	q.Set("direction", string(dir))
	if depth > 0 {
		q.Set("depth", strconv.Itoa(depth))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/lineage?"+q.Encode(), nil)
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", apiError(payload, status, hdr)
	}
	var out struct {
		Nodes      []provstore.CrossNode `json:"nodes"`
		NextCursor string                `json:"next_cursor"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, "", err
	}
	return out.Nodes, out.NextCursor, nil
}

// ListStream iterates document ids over one NDJSON response instead of
// repeated pages: the server writes ids as it walks the store, so the
// whole listing streams over a single connection with bounded memory
// on both ends. On a transport or decode error the iterator yields
// ("", err) once and stops.
func (c *Client) ListStream(ctx context.Context) iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		body, err := c.openStream(ctx, "/api/v0/documents")
		if err != nil {
			yield("", err)
			return
		}
		defer body.Close()
		dec := json.NewDecoder(bufio.NewReader(body))
		for {
			var id string
			if err := dec.Decode(&id); err != nil {
				if err != io.EOF {
					yield("", err)
				}
				return
			}
			if !yield(id, nil) {
				return
			}
		}
	}
}

// openStream issues a GET with Accept: application/x-ndjson and hands
// back the response body for line-wise decoding. Non-2xx responses are
// drained into an APIError.
func (c *Client) openStream(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.minSeq != nil {
		if seq := c.minSeq(); seq > 0 {
			req.Header.Set("X-Yprov-Min-Seq", strconv.FormatUint(seq, 10))
		}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID())
	} else if c.Trace {
		req.Header.Set(obs.TraceHeader, obs.NewTraceID())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, apiError(payload, resp.StatusCode, resp.Header)
	}
	return resp.Body, nil
}
