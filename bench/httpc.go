package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// httpConn is a minimal keep-alive HTTP/1.1 GET client over one TCP
// connection. It reuses its request and body buffers, so a warmed-up
// request allocates nothing: the query loop it serves times requests in
// microseconds, and net/http's per-request garbage would land in the
// measurement as collector pauses. It understands exactly what Go's
// net/http server sends: Content-Length or chunked bodies.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), host: addr}, nil
}

func (c *httpConn) Close() error { return c.conn.Close() }

// get requests path and returns the response body, which is valid until
// the next call. A non-200 status is an error.
func (c *httpConn) get(path []byte) ([]byte, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		return nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.Equal(line[9:12], []byte("200")) {
		return nil, fmt.Errorf("GET %s: %s", path, bytes.TrimSpace(line))
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = atoi(value); err != nil {
				return nil, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	if !chunked {
		if length < 0 {
			return nil, errors.New("response has neither Content-Length nor chunked encoding")
		}
		return c.read(length)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("chunk size: %w", err)
		}
		if size == 0 {
			// Trailer section: skip to the blank line.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return nil, err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return c.body, nil
				}
			}
		}
		if _, err := c.read(int(size)); err != nil {
			return nil, err
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return nil, err
		}
	}
}

// read appends n body bytes to c.body.
func (c *httpConn) read(n int) ([]byte, error) {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	if _, err := io.ReadFull(c.br, c.body[start:]); err != nil {
		return nil, err
	}
	return c.body, nil
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty number")
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("bad number %q", b)
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}

// sumField adds up every integer value of "key": in a JSON document —
// the per-source "updates" counts of /atoms/ingest — without decoding
// it.
func sumField(doc, key []byte) (int, error) {
	total := 0
	for {
		i := bytes.Index(doc, key)
		if i < 0 {
			return total, nil
		}
		doc = doc[i+len(key):]
		j := 0
		for j < len(doc) && doc[j] >= '0' && doc[j] <= '9' {
			j++
		}
		n, err := atoi(doc[:j])
		if err != nil {
			return 0, err
		}
		total += n
		doc = doc[j:]
	}
}
