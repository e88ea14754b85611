package api

// maxElideDepth bounds the nesting elideContent follows; a deeper body is
// returned as it came, for json.Unmarshal to decode (or refuse) whole.
const maxElideDepth = 64

// elideContent returns body with the string value of every object member
// named "content" replaced by "", so that keying a request does not decode
// the files it carries. It returns body itself when there is nothing to
// elide or when body is not a JSON text it can vouch for: malformed, or
// nested deeper than maxElideDepth. json.Unmarshal then sees the same
// bytes and refuses them the same way.
//
// Eliding changes no decode outcome of a request type: File.Content is
// the only field any of them names content, and every JSON string decodes
// into a Go string, so each body decodes without error exactly when the
// other does, with the same error text and the same fields but Content.
func elideContent(body []byte) []byte {
	s := elider{src: body}
	s.space()
	if !s.value(0) {
		return body
	}
	s.space()
	if s.pos != len(body) || s.out == nil {
		return body
	}
	return append(s.out, body[s.copied:]...)
}

// elider is one pass of elideContent: a JSON syntax check (RFC 8259, as
// encoding/json reads it) that copies src to out minus the elided strings.
// out stays nil until the first elision; src[:copied] is in out.
type elider struct {
	src    []byte
	pos    int
	out    []byte
	copied int
}

// plainByte marks the bytes a JSON string holds unescaped.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < 256; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// hexDigit marks the digits of a \u escape.
var hexDigit = func() (t [256]bool) {
	for _, b := range []byte("0123456789abcdefABCDEF") {
		t[b] = true
	}
	return t
}()

func (s *elider) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end of src.
func (s *elider) peek() byte {
	if s.pos < len(s.src) {
		return s.src[s.pos]
	}
	return 0
}

func (s *elider) value(depth int) bool {
	switch c := s.peek(); {
	case c == '{':
		return s.object(depth + 1)
	case c == '[':
		return s.array(depth + 1)
	case c == '"':
		return s.str()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	}
	return false
}

func (s *elider) object(depth int) bool {
	if depth > maxElideDepth {
		return false
	}
	s.pos++ // '{'
	s.space()
	if s.peek() == '}' {
		s.pos++
		return true
	}
	for {
		start := s.pos
		if s.peek() != '"' || !s.str() {
			return false
		}
		name := s.src[start:s.pos]
		s.space()
		if s.peek() != ':' {
			return false
		}
		s.pos++
		s.space()
		if string(name) == `"content"` && s.peek() == '"' {
			start := s.pos
			if !s.str() {
				return false
			}
			if s.pos-start > 2 {
				s.out = append(s.out, s.src[s.copied:start+1]...)
				s.copied = s.pos - 1
			}
		} else if !s.value(depth) {
			return false
		}
		s.space()
		switch s.peek() {
		case ',':
			s.pos++
			s.space()
		case '}':
			s.pos++
			return true
		default:
			return false
		}
	}
}

func (s *elider) array(depth int) bool {
	if depth > maxElideDepth {
		return false
	}
	s.pos++ // '['
	s.space()
	if s.peek() == ']' {
		s.pos++
		return true
	}
	for {
		if !s.value(depth) {
			return false
		}
		s.space()
		switch s.peek() {
		case ',':
			s.pos++
			s.space()
		case ']':
			s.pos++
			return true
		default:
			return false
		}
	}
}

// str reads a string from its opening quote through its closing one.
func (s *elider) str() bool {
	src, i := s.src, s.pos+1
	for {
		for i < len(src) && plainByte[src[i]] {
			i++
		}
		if i == len(src) { // no closing quote
			return false
		}
		switch src[i] {
		case '"':
			s.pos = i + 1
			return true
		case '\\':
			if i+1 == len(src) {
				return false
			}
			switch src[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(src) || !hexDigit[src[i+2]] || !hexDigit[src[i+3]] || !hexDigit[src[i+4]] || !hexDigit[src[i+5]] {
					return false
				}
				i += 6
			default:
				return false
			}
		default: // a control byte
			return false
		}
	}
}

func (s *elider) literal(word string) bool {
	if len(s.src)-s.pos < len(word) || string(s.src[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *elider) number() bool {
	if s.peek() == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case c >= '1' && c <= '9':
		s.digits()
	default:
		return false
	}
	if s.peek() == '.' {
		s.pos++
		if !s.digits() {
			return false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !s.digits() {
			return false
		}
	}
	return true
}

// digits reads one or more decimal digits.
func (s *elider) digits() bool {
	start := s.pos
	for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
		s.pos++
	}
	return s.pos > start
}
