package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that sends pre-encoded
// request bytes and parses responses itself. The timed loop goes
// through it, not net/http's Transport, so an operation is one write
// and one read on the calling goroutine: no connection pool, no
// per-request goroutine hand-off adding scheduler noise to latencies.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // response body, reused between requests
}

// reply is a parsed response. body aliases the connection's buffer
// and is valid until the next request.
type reply struct {
	status int
	header http.Header
	body   []byte
}

const ioTimeout = 30 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c = nil
	}
}

// do sends head (request line, headers, blank line) and body, and
// reads the whole response. After a transport error the connection is
// closed; the next call redials.
func (c *conn) do(head, body []byte) (reply, error) {
	if c.c == nil {
		nc, err := dial(c.addr)
		if err != nil {
			return reply{}, err
		}
		*c = *nc
	}
	r, err := c.roundTrip(head, body)
	if err != nil {
		c.close()
	}
	return r, err
}

func (c *conn) roundTrip(head, body []byte) (reply, error) {
	if err := c.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return reply{}, err
	}
	if _, err := c.bw.Write(head); err != nil {
		return reply{}, err
	}
	if len(body) > 0 {
		if _, err := c.bw.Write(body); err != nil {
			return reply{}, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(c.buf)) < n {
			c.buf = make([]byte, n)
		}
		c.buf = c.buf[:n]
		if _, err := io.ReadFull(resp.Body, c.buf); err != nil {
			return reply{}, err
		}
	} else if c.buf, err = io.ReadAll(resp.Body); err != nil {
		return reply{}, err
	}
	if resp.Close {
		c.close()
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: c.buf}, nil
}

// getHead encodes a bodyless GET request for path.
func getHead(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// bodyHead encodes the head of a request carrying n body bytes of JSON.
func bodyHead(method, path string, n int) []byte {
	return []byte(method + " " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(n) + "\r\n\r\n")
}

// get is the convenience form for control-plane requests (stats,
// metrics, health) outside the timed loop.
func (c *conn) get(path string) (reply, error) {
	r, err := c.do(getHead(path), nil)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", path, r.status, truncate(r.body, 200))
	}
	return r, err
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
