package fuzz

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"mufuzz/internal/u256"
)

// AppendTx appends the canonical line of one transaction to buf:
//
//	tx <func> <sender> <value> <args|-> [<callee> <attacker|->]
//
// Snapshots, corpus-seed payloads, conformance transcripts and fleet record
// chunks all carry sequences in this one form. Plain transactions keep the
// 5-field v1 form byte for byte; a nonzero callee or an attacker spec grows
// the line to the 7-field world form. Built with appends rather than fmt:
// transcripts encode one line per executed transaction.
func AppendTx(buf []byte, tx *TxInput) []byte {
	buf = append(buf, "tx "...)
	buf = append(buf, tx.Func...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(tx.Sender), 10)
	buf = append(buf, ' ')
	buf = tx.Value.AppendHex(buf)
	buf = append(buf, ' ')
	buf = appendHexOrDash(buf, tx.Args)
	if tx.Callee != 0 || len(tx.Attacker) != 0 {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(tx.Callee), 10)
		buf = append(buf, ' ')
		buf = appendHexOrDash(buf, tx.Attacker)
	}
	return append(buf, '\n')
}

// appendHexOrDash appends b in hex, or "-" when b is empty.
func appendHexOrDash(buf, b []byte) []byte {
	if len(b) == 0 {
		return append(buf, '-')
	}
	return hex.AppendEncode(buf, b)
}

// EncodeSequence renders one transaction sequence as AppendTx lines — the
// canonical corpus-seed payload stores exchange.
func EncodeSequence(seq Sequence) []byte {
	var buf []byte
	for i := range seq {
		buf = AppendTx(buf, &seq[i])
	}
	return buf
}

// DecodeSequence parses a sequence written by EncodeSequence: one or more
// tx lines and nothing else. A line of 4 MiB or more fails the decode
// rather than truncating the sequence.
func DecodeSequence(data []byte) (Sequence, error) {
	r := NewLineReader(bytes.NewReader(data), "fuzz: decode sequence", 1<<22)
	seq := r.TxBlock()
	if err := r.Close(); err != nil {
		return nil, err
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("fuzz: empty sequence")
	}
	return seq, nil
}

// LineReader is the one scanner behind every text format the engine reads
// back: snapshots, corpus-seed sequences and conformance transcripts. A
// format is a fixed order of lines, each a keyword and then fields in a
// fixed order, one space apart; a keyed field reads "key=value". Every
// field is accepted only in the form its encoder writes, so whatever
// decodes re-encodes to the bytes it came from:
//
//   - integers in base 10, without a '+' or leading zeros;
//   - flags as 0 or 1;
//   - 256-bit words in the 0x form u256.AppendHex writes;
//   - bytes in lowercase hex;
//   - floats in the exact hex form strconv.FormatFloat(f, 'x', -1, 64)
//     writes;
//   - strings quoted as strconv.Quote writes them, the only fields that may
//     contain spaces besides a line's final rest-of-line field.
//
// Every line ends in '\n', and none ends in '\r'. Each read consumes the
// next field, so a composite literal of reads lists them in line order (Go
// evaluates its calls left to right). Errors are sticky: after the first,
// reads return zero values and Next reports false, so a decoder reads
// straight through and checks Close once. The error names the line by
// number and text, and the field. The strings it returns are copies, so a
// decoded value does not keep the whole input alive.
type LineReader struct {
	src     string // input after the current line, and after next once peeked
	what    string // error prefix, e.g. "fuzz: decode snapshot"
	maxLine int    // a line of maxLine bytes or more is refused
	n       int    // current line's number, 1-based
	line    string // current line
	rest    string // unread part of the current line
	next    string // the line after the current one, when peeked
	peeked  bool
	err     error
}

// NewLineReader reads all of rd. Errors are prefixed with what, and lines
// of maxLine bytes or more (the newline not counted) are refused.
func NewLineReader(rd io.Reader, what string, maxLine int) *LineReader {
	var b strings.Builder
	_, err := io.Copy(&b, rd)
	r := &LineReader{src: b.String(), what: what, maxLine: maxLine}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", what, err)
	}
	return r
}

// Header reads the first line, "<magic> v<N>", and returns N. Versions 1 to
// max are read; a later one was written by a newer build and is refused as
// such rather than misparsed.
func (r *LineReader) Header(magic string, max int) int {
	r.Expect(magic)
	tok, _ := r.token("version")
	digits, isV := strings.CutPrefix(tok, "v")
	v, ok := parseInt(digits, strconv.IntSize)
	switch {
	case r.err != nil:
		return 0
	case !isV || !ok || v < 1:
		r.Fail("unsupported version %q", tok)
	case v > int64(max):
		r.Fail("format v%d was produced by a newer mufuzz (this build reads up to v%d)", v, max)
	}
	return int(v)
}

// Next reports whether the next line begins with keyword, as the whole line
// or followed by a space, and if so makes it the current line, read up to
// the keyword's end. The current line must have been read to its end.
func (r *LineReader) Next(keyword string) bool {
	r.lineDone()
	if !r.peek() || !strings.HasPrefix(r.next, keyword) ||
		len(r.next) > len(keyword) && r.next[len(keyword)] != ' ' {
		return false
	}
	r.n++
	r.line, r.rest, r.next, r.peeked = r.next, r.next[len(keyword):], "", false
	return true
}

// Expect is Next for a line that must come next.
func (r *LineReader) Expect(keyword string) {
	if !r.Next(keyword) && r.err == nil {
		r.failAt(r.n+1, r.next, "want a %q line", keyword)
	}
}

// Close ends the decode. It returns the first error, or one for input left
// unread: text after the current line's last field, or another line.
func (r *LineReader) Close() error {
	r.lineDone()
	if r.peek() {
		r.failAt(r.n+1, r.next, "unexpected line")
	}
	return r.err
}

// lineDone checks that the current line was read to its end.
func (r *LineReader) lineDone() {
	if r.rest != "" {
		r.Fail("unexpected %q after the last field", r.rest)
	}
}

// peek splits off the line after the current one. It reports false after
// an error, at the end of the input and on a line no encoder writes: one
// without a newline, too long, or ending in '\r'.
func (r *LineReader) peek() bool {
	if r.err != nil {
		return false
	}
	if r.peeked {
		return true
	}
	if r.src == "" {
		return false
	}
	i := strings.IndexByte(r.src, '\n')
	line := r.src
	if i >= 0 {
		line = r.src[:i]
	}
	switch {
	case len(line) >= r.maxLine:
		r.failAt(r.n+1, line, "line of %d bytes, limit %d", len(line), r.maxLine-1)
	case i < 0:
		r.failAt(r.n+1, line, "no newline at the end of the input")
	case strings.HasSuffix(line, "\r"):
		r.failAt(r.n+1, line, "line ends in a carriage return")
	default:
		r.next, r.peeked, r.src = line, true, r.src[i+1:]
		return true
	}
	return false
}

// Fail records an error on the current line, unless one is recorded
// already.
func (r *LineReader) Fail(format string, args ...any) {
	r.failAt(r.n, r.line, format, args...)
}

func (r *LineReader) failAt(n int, line, format string, args ...any) {
	if r.err != nil {
		return
	}
	q := strconv.Quote(line)
	if len(line) > 80 {
		q = strconv.Quote(line[:80]) + "..."
	}
	r.err = fmt.Errorf("%s: line %d %s: %s", r.what, n, q, fmt.Sprintf(format, args...))
}

// bad records a malformed field.
func (r *LineReader) bad(name, text string) {
	r.Fail("bad %s %q", strings.TrimSuffix(name, "="), text)
}

// field reads the space before the next field, and the field's key when
// name is one ("seed=", say, rather than "pc"), and returns the rest of the
// line.
func (r *LineReader) field(name string) (string, bool) {
	if r.err != nil {
		return "", false
	}
	s, ok := strings.CutPrefix(r.rest, " ")
	if ok && strings.HasSuffix(name, "=") {
		s, ok = strings.CutPrefix(s, name)
	}
	if !ok {
		r.Fail("missing %s", strings.TrimSuffix(name, "="))
		return "", false
	}
	return s, true
}

// token reads the next field, up to the following space.
func (r *LineReader) token(name string) (string, bool) {
	s, ok := r.field(name)
	if !ok {
		return "", false
	}
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		i = len(s)
	}
	r.rest = s[i:]
	return s[:i], true
}

// More reports whether the current line has fields left.
func (r *LineReader) More() bool { return r.err == nil && r.rest != "" }

// Rest reads the rest of the line as one field, spaces included.
func (r *LineReader) Rest(name string) string {
	s, _ := r.field(name)
	r.rest = ""
	return strings.Clone(s)
}

// Token reads a nonempty field without whitespace, such as a name.
func (r *LineReader) Token(name string) string {
	tok, ok := r.token(name)
	if ok && (tok == "" || strings.IndexFunc(tok, unicode.IsSpace) >= 0) {
		r.bad(name, tok)
		return ""
	}
	return strings.Clone(tok)
}

// Quoted reads a string quoted as strconv.Quote writes it.
func (r *LineReader) Quoted(name string) string {
	s, ok := r.field(name)
	if !ok {
		return ""
	}
	q, err := strconv.QuotedPrefix(s)
	v, _ := strconv.Unquote(q)
	if err != nil || strconv.Quote(v) != q {
		r.bad(name, s)
		return ""
	}
	r.rest = s[len(q):]
	return strings.Clone(v)
}

// Int reads an int.
func (r *LineReader) Int(name string) int { return int(r.integer(name, strconv.IntSize)) }

// Int64 reads an int64.
func (r *LineReader) Int64(name string) int64 { return r.integer(name, 64) }

func (r *LineReader) integer(name string, bits int) int64 {
	tok, ok := r.token(name)
	n, valid := parseInt(tok, bits)
	if ok && !valid {
		r.bad(name, tok)
	}
	return n
}

// Uint64 reads a uint64.
func (r *LineReader) Uint64(name string) uint64 {
	tok, ok := r.token(name)
	n, err := strconv.ParseUint(tok, 10, 64)
	if ok && (err != nil || !canonicalDigits(tok)) {
		r.bad(name, tok)
		return 0
	}
	return n
}

// parseInt parses an integer as strconv.AppendInt writes it.
func parseInt(s string, bits int) (int64, bool) {
	digits, neg := strings.CutPrefix(s, "-")
	n, err := strconv.ParseInt(s, 10, bits)
	if err != nil || !canonicalDigits(digits) || neg && n == 0 {
		return 0, false
	}
	return n, true
}

// canonicalDigits reports whether s is decimal digits without a leading
// zero, or "0".
func canonicalDigits(s string) bool {
	return s != "" && '0' <= s[0] && s[0] <= '9' && (s[0] != '0' || len(s) == 1)
}

// Flag reads a 0/1 flag.
func (r *LineReader) Flag(name string) bool {
	tok, ok := r.token(name)
	if ok && tok != "0" && tok != "1" {
		r.bad(name, tok)
	}
	return tok == "1"
}

// Float reads a float64 in the exact hex form hexFloat writes.
func (r *LineReader) Float(name string) float64 {
	tok, ok := r.token(name)
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(tok, 64)
	var buf [32]byte
	if err != nil || string(strconv.AppendFloat(buf[:0], f, 'x', -1, 64)) != tok {
		r.bad(name, tok)
		return 0
	}
	return f
}

// Word reads a 256-bit word in the 0x form u256.AppendHex writes: lowercase
// digits, no leading zeros.
func (r *LineReader) Word(name string) u256.Int {
	tok, ok := r.token(name)
	if !ok {
		return u256.Int{}
	}
	digits, is0x := strings.CutPrefix(tok, "0x")
	if !is0x || digits == "" || len(digits) > 64 || digits[0] == '0' && len(digits) > 1 {
		r.bad(name, tok)
		return u256.Int{}
	}
	var limbs [4]uint64
	for i := 0; i < len(digits); i++ {
		d := unhex(digits[len(digits)-1-i])
		if d > 15 {
			r.bad(name, tok)
			return u256.Int{}
		}
		limbs[i/16] |= uint64(d) << (4 * (i % 16))
	}
	return u256.NewFromLimbs(limbs[0], limbs[1], limbs[2], limbs[3])
}

// Hex reads exactly len(dst) bytes, in lowercase hex, into dst.
func (r *LineReader) Hex(name string, dst []byte) {
	if tok, ok := r.token(name); ok && !decodeHex(dst, tok) {
		r.bad(name, tok)
	}
}

// hexOrDash reads a field appendHexOrDash wrote.
func (r *LineReader) hexOrDash(name string) []byte {
	tok, ok := r.token(name)
	if !ok || tok == "-" {
		return nil
	}
	b := make([]byte, len(tok)/2)
	if tok == "" || !decodeHex(b, tok) {
		r.bad(name, tok)
		return nil
	}
	return b
}

// decodeHex decodes s, lowercase hex of exactly len(dst) bytes, into dst.
func decodeHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, lo := unhex(s[2*i]), unhex(s[2*i+1])
		if hi > 15 || lo > 15 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// unhex returns the value of a lowercase hex digit, and 16 for any other
// byte.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 16
}

// Edge reads a branch edge: its pc and a 0/1 taken flag.
func (r *LineReader) Edge() BranchEdge {
	return BranchEdge{PC: r.Uint64("pc"), Taken: r.Flag("taken")}
}

// Tx reads the fields of a tx line (see AppendTx). Sender and callee
// indexes must be non-negative: the executor reduces them modulo the pool
// sizes, so a negative index would panic mid-slice.
func (r *LineReader) Tx() TxInput {
	tx := TxInput{
		Func: r.Token("func"), Sender: r.index("sender"), Value: r.Word("value"), Args: r.hexOrDash("args"),
	}
	if r.More() {
		tx.Callee, tx.Attacker = r.index("callee"), r.hexOrDash("attacker")
		if tx.Callee == 0 && tx.Attacker == nil {
			r.Fail("world-form tx with callee 0 and no attacker spec")
		}
	}
	return tx
}

// index reads a non-negative int.
func (r *LineReader) index(name string) int {
	n := r.Int(name)
	if n < 0 {
		r.bad(name, strconv.Itoa(n))
		return 0
	}
	return n
}

// TxBlock reads a run of tx lines; nil when there is none.
func (r *LineReader) TxBlock() Sequence {
	var seq Sequence
	for r.Next("tx") {
		seq = append(seq, r.Tx())
	}
	return seq
}

// EngineOptions reads the run of options-line fields snapshots and
// transcripts share, maxseq= to nocache=, and returns nocache. The engine's
// fixed parameters are printed for the format's sake: an input carrying any
// other value was not made by this engine, and the error names the field.
// The retired workers=, batched= and copystate= fields are read and
// ignored, so an older build's input at workers > 1 reads as the one
// engine's. energyKey is the energy field's key, energybase= in snapshots.
func (r *LineReader) EngineOptions(energyKey string) (noPrefixCache bool) {
	for _, p := range []struct {
		key  string
		want int64
	}{{"maxseq=", MaxSeqLen}, {"gas=", int64(GasPerTx)}, {energyKey, EnergyBase}, {"initseeds=", InitialSeeds}} {
		if got := r.Int64(p.key); got != p.want {
			r.Fail("%s%d, want %d", p.key, got, p.want)
		}
	}
	r.Int("workers=")
	r.Flag("batched=")
	r.Flag("copystate=")
	return r.Flag("nocache=")
}
