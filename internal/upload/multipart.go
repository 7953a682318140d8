package upload

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/quotedprintable"
	"net/http"
	"net/textproto"
	"strings"
)

// windowSize is how many body bytes the reader holds at once. A part's
// data is scanned for its delimiter a window at a time, and a part's
// header block must fit in one window.
const windowSize = 64 << 10

// maxLineBytes bounds each line between parts (preamble and delimiter
// lines), as mime/multipart's 4 KiB read buffer does.
const maxLineBytes = 4 << 10

// maxPartHeaders bounds the header lines of one part, as mime/multipart
// does.
const maxPartHeaders = 10000

// multipartReader reads a multipart body part by part. Under an RFC 2046
// boundary it accepts exactly the bodies mime/multipart accepts and yields
// the same parts, with one exception: a part's header block must fit in
// the window, where mime/multipart allows 10 MiB. The difference is the scan: a part's data
// is searched for its delimiter with one bytes.Index per window, and only
// a window's last len(delim)-1 bytes, where a delimiter the next read
// completes could begin, are kept back and looked at again.
type multipartReader struct {
	br    *bufio.Reader
	dash  []byte // "--" + boundary
	delim []byte // nl + "--" + boundary: the data of a part ends before it
	nl    []byte // "\r\n", or "\n" once the first delimiter line ends in a bare LF
	parts int
	cur   *partReader
}

// newMultipartReader accepts what (*http.Request).MultipartReader
// accepts: a multipart/form-data or multipart/mixed body with a boundary.
func newMultipartReader(r *http.Request) (*multipartReader, error) {
	v := r.Header.Get("Content-Type")
	if v == "" {
		return nil, http.ErrNotMultipart
	}
	if r.Body == nil {
		return nil, errors.New("missing form body")
	}
	d, params, err := mime.ParseMediaType(v)
	if err != nil || d != "multipart/form-data" && d != "multipart/mixed" {
		return nil, http.ErrNotMultipart
	}
	boundary, ok := params["boundary"]
	if !ok {
		return nil, http.ErrMissingBoundary
	}
	if boundary == "" {
		return nil, errors.New("multipart: boundary is empty")
	}
	b := []byte("\r\n--" + boundary)
	return &multipartReader{
		br:    bufio.NewReaderSize(r.Body, windowSize),
		dash:  b[2:],
		delim: b,
		nl:    b[:2],
	}, nil
}

// next advances to the next part and returns its form name and a reader
// of its body. It returns io.EOF after the final delimiter, and also when
// the body ends where a part's header block would begin or inside one,
// as mime/multipart does.
func (mr *multipartReader) next() (string, io.Reader, error) {
	if mr.cur != nil {
		// A part left unread is skipped.
		io.Copy(io.Discard, mr.cur)
		mr.cur = nil
	}
	expectPart := false
	for {
		line, err := mr.br.ReadSlice('\n')
		if len(line) >= maxLineBytes && line[maxLineBytes-1] != '\n' {
			return "", nil, fmt.Errorf("multipart: NextPart: %w", bufio.ErrBufferFull)
		}
		if err != nil {
			if err == io.EOF && mr.isFinal(line) {
				return "", nil, io.EOF
			}
			return "", nil, fmt.Errorf("multipart: NextPart: %w", err)
		}
		switch {
		case mr.isDelimiter(line):
			mr.parts++
			return mr.newPart()
		case mr.isFinal(line):
			return "", nil, io.EOF
		case mr.parts == 0:
			// The preamble is skipped.
		case !expectPart && bytes.Equal(line, mr.nl):
			// The newline that ends the previous part's data.
			expectPart = true
		case expectPart:
			return "", nil, fmt.Errorf("multipart: expecting a new Part; got line %q", line)
		default:
			return "", nil, fmt.Errorf("multipart: unexpected line in Next(): %q", line)
		}
	}
}

// isDelimiter reports whether line is a delimiter line: "--boundary",
// spaces and tabs, then the newline. A bare LF ending the first one
// switches the body to LF newlines.
func (mr *multipartReader) isDelimiter(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, mr.dash)
	if !ok {
		return false
	}
	rest = bytes.TrimLeft(rest, " \t")
	if mr.parts == 0 && len(rest) == 1 && rest[0] == '\n' {
		mr.nl, mr.delim = mr.nl[1:], mr.delim[1:]
	}
	return bytes.Equal(rest, mr.nl)
}

// isFinal reports whether line is the final delimiter line:
// "--boundary--", spaces and tabs, then the newline or the body's end.
func (mr *multipartReader) isFinal(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, mr.dash)
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, []byte("--"))
	if !ok {
		return false
	}
	rest = bytes.TrimLeft(rest, " \t")
	return len(rest) == 0 || bytes.Equal(rest, mr.nl)
}

// newPart reads the header block after a delimiter line and starts the
// part's body.
func (mr *multipartReader) newPart() (string, io.Reader, error) {
	block, err := mr.headerBlock()
	if err != nil {
		return "", nil, err
	}
	// Read through bufio's default 4 KiB, as mime/multipart's header reads
	// are: a line cut off by the body's end after a multiple of 4 KiB ends
	// the parts rather than failing to parse. mime/multipart counts header
	// lines before it checks them, so the count is checked first.
	h, err := textproto.NewReader(bufio.NewReader(bytes.NewReader(block))).ReadMIMEHeader()
	lines := 0
	for _, vs := range h {
		lines += len(vs)
	}
	if lines > maxPartHeaders {
		return "", nil, errors.New("multipart: message too large")
	}
	if err != nil {
		return "", nil, err
	}
	name := ""
	if d, params, err := mime.ParseMediaType(h.Get("Content-Disposition")); err == nil && d == "form-data" {
		name = params["name"]
	}
	mr.cur = &partReader{mr: mr}
	if strings.EqualFold(h.Get("Content-Transfer-Encoding"), "quoted-printable") {
		return name, quotedprintable.NewReader(mr.cur), nil
	}
	return name, mr.cur, nil
}

// headerBlock consumes and returns the next header block through its
// blank line. When the body ends first it returns the rest of the body,
// which ends the parts or fails to parse. The block is valid until the
// next read.
func (mr *multipartReader) headerBlock() ([]byte, error) {
	seen := 0 // the lines before seen are complete and not blank
	for {
		buf, _ := mr.br.Peek(mr.br.Buffered())
		for {
			i := bytes.IndexByte(buf[seen:], '\n')
			if i < 0 {
				break
			}
			line := buf[seen : seen+i]
			seen += i + 1
			if len(line) == 0 || len(line) == 1 && line[0] == '\r' {
				mr.br.Discard(seen)
				return buf[:seen], nil
			}
		}
		if len(buf) == windowSize {
			return nil, fmt.Errorf("multipart: a part's header block exceeds %d KiB", windowSize>>10)
		}
		if _, err := mr.br.Peek(len(buf) + 1); err != nil {
			if err != io.EOF {
				return nil, fmt.Errorf("multipart: NextPart: %w", err)
			}
			buf, _ = mr.br.Peek(mr.br.Buffered())
			mr.br.Discard(len(buf))
			return buf, nil
		}
	}
}

// partReader reads one part's data out of the window.
type partReader struct {
	mr      *multipartReader
	n       int   // window bytes known to be data and not yet read
	started bool  // some of the data was found
	err     error // what follows the data: io.EOF at the delimiter, or readErr
	readErr error // why the window can grow no more, once it cannot
}

// fill scans the window until some data is known or the part has ended.
func (p *partReader) fill() {
	br := p.mr.br
	for p.n == 0 && p.err == nil {
		buf, _ := br.Peek(br.Buffered())
		p.n, p.err = p.mr.scan(buf, !p.started, p.readErr)
		p.started = p.started || p.n > 0
		if p.n == 0 && p.err == nil {
			// Read more into the window.
			if _, p.readErr = br.Peek(len(buf) + 1); p.readErr == io.EOF {
				p.readErr = io.ErrUnexpectedEOF
			}
		}
	}
}

func (p *partReader) Read(d []byte) (int, error) {
	p.fill()
	if p.n == 0 {
		return 0, p.err
	}
	n, _ := p.mr.br.Read(d[:min(len(d), p.n)])
	p.n -= n
	if p.n == 0 {
		return n, p.err
	}
	return n, nil
}

// WriteTo writes the part's data to w straight from the window, so a file
// part is copied once, from the window into the blob writer.
func (p *partReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		p.fill()
		if p.n == 0 {
			if p.err == io.EOF {
				return total, nil
			}
			return total, p.err
		}
		buf, _ := p.mr.br.Peek(p.n)
		n, err := w.Write(buf)
		p.mr.br.Discard(n)
		p.n -= n
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

// scan reports how many bytes at the front of buf, the unread window, are
// part data, and what follows them: nil when more must be read to tell,
// io.EOF at the delimiter that ends the part, or readErr when the body
// ends without one. At the start of a part's data "--boundary" with no
// newline before it ends the part too.
func (mr *multipartReader) scan(buf []byte, start bool, readErr error) (int, error) {
	if start {
		if bytes.HasPrefix(buf, mr.dash) {
			switch delimiterEnds(buf[len(mr.dash):], readErr) {
			case notDelimiter:
				return len(mr.dash), nil
			case undecided:
				return 0, nil
			default:
				return 0, io.EOF
			}
		}
		if bytes.HasPrefix(mr.dash, buf) {
			return 0, readErr
		}
	}
	if i := bytes.Index(buf, mr.delim); i >= 0 {
		switch delimiterEnds(buf[i+len(mr.delim):], readErr) {
		case notDelimiter:
			return i + len(mr.delim), nil
		case undecided:
			return i, nil
		default:
			return i, io.EOF
		}
	}
	// No delimiter in the window: only its last len(delim)-1 bytes can
	// begin one that the next read completes.
	tail := max(len(buf)-len(mr.delim)+1, 0)
	if i := bytes.LastIndexByte(buf[tail:], mr.delim[0]); i >= 0 && bytes.HasPrefix(mr.delim, buf[tail+i:]) {
		if tail+i > 0 {
			return tail + i, nil
		}
		return 0, readErr
	}
	return len(buf), readErr
}

type verdict int

const (
	notDelimiter verdict = iota
	undecided
	isDelimiter
)

// delimiterEnds judges a boundary match by the bytes after it: "--", a
// space, tab, CR or LF, or the body's end make it a delimiter; any other
// byte makes it data; too few bytes, with more to come, leave it
// undecided.
func delimiterEnds(after []byte, readErr error) verdict {
	if len(after) == 0 {
		if readErr != nil {
			return isDelimiter
		}
		return undecided
	}
	switch c := after[0]; {
	case c == ' ' || c == '\t' || c == '\r' || c == '\n':
		return isDelimiter
	case c != '-':
		return notDelimiter
	case len(after) > 1:
		if after[1] == '-' {
			return isDelimiter
		}
		return notDelimiter
	case readErr != nil:
		return notDelimiter
	}
	return undecided
}
