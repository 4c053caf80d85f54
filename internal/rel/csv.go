package rel

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
)

// This file provides a minimal text format for databases so the cmd/
// tools can load and store data. The format is line oriented:
//
//	# comment
//	@R 3            -- declares relation R of arity 3
//	R 1,2,3         -- adds tuple (1,2,3) to R
//	R a,b,c         -- values parse as int when possible, else string
//	B               -- adds the empty tuple to B, declared with arity 0
//
// Lines end at '\n'; surrounding whitespace (a trailing '\r' included)
// is dropped and blank lines are ignored. A declaration is exactly
// "@<name> <arity>" with a non-negative decimal arity, and may be
// repeated with the same arity. The relation name of a tuple line ends
// at the first space or tab; the rest is split at commas and each
// field trimmed. A tuple line for an undeclared relation implicitly
// declares it with the tuple's arity.
//
// A field is an integer when strconv.ParseInt(field, 10, 64) accepts
// it (optional sign, leading zeros allowed, 64-bit range) and a string
// otherwise. Values are written verbatim, so the format has limits: a
// string that reads as an integer ("007", "+5") comes back as that
// integer, and a string containing ',' or leading or trailing
// whitespace (the empty string is fine) comes back split or trimmed.
//
// ReadText reads the input whole (the text is about a fifteenth of
// its in-memory form), counts each relation's tuple lines so its
// storage is reserved once, and then loads in one pass over the bytes
// that allocates per relation and per chunk of strings, not per tuple:
// fields are sliced in place, integers decoded by a byte loop, every
// field interned straight into its relation's dictionary (a string is
// copied only the first time the relation sees it, into a chunk the
// dictionary owns), and the row enters the relation by those IDs
// through Relation.addIDs.

// WriteText writes a store in the text format. It accepts any ReadStore
// backend; relations are emitted in name order and tuples in sorted
// order, so equal stores — sharded or not — serialize identically.
func WriteText(w io.Writer, d ReadStore) error {
	bw := bufio.NewWriter(w)
	for _, name := range d.Schema().Names() {
		if _, err := fmt.Fprintf(bw, "@%s %d\n", name, d.Schema()[name]); err != nil {
			return err
		}
		for _, t := range sortedScan(d.View(name)) {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = v.String()
			}
			if _, err := fmt.Fprintf(bw, "%s %s\n", name, strings.Join(parts, ",")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// sortedScan drains a view and returns its tuples in lexicographic
// order, the generalization of Relation.Sorted over StoredRel.
func sortedScan(v StoredRel) []Tuple {
	ts := make([]Tuple, 0, v.Len())
	c := scanTuples(v)
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Cmp(ts[j]) < 0 })
	return ts
}

// ReadText parses a database from the text format. Relations hold
// their tuples in file order. Errors name the offending line.
func ReadText(r io.Reader) (*Database, error) {
	data, err := slurp(r)
	if err != nil {
		return nil, err
	}
	ld := loader{d: NewDatabase(Schema{}), rels: make(map[string]*loadRel)}
	for _, pass := range []func([]byte) error{ld.count, ld.line} {
		if err := eachLine(data, pass); err != nil {
			return nil, err
		}
	}
	return ld.d, nil
}

// slurp reads r to its end. A reader that can say how much it holds —
// an in-memory reader through Len, an *os.File through Stat — gets a
// buffer of that size at once; any other is read into one that doubles
// as it fills, which allocates about three times the input.
func slurp(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch r := r.(type) {
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// eachLine calls fn on every line of data that is neither blank nor a
// comment, surrounding whitespace removed, and stops at fn's first
// error, which it returns prefixed with the line number.
func eachLine(data []byte, fn func(line []byte) error) error {
	for lineno := 1; len(data) > 0; lineno++ {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		if line = bytes.TrimSpace(line); len(line) == 0 || line[0] == '#' {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	return nil
}

// loader is the state of one ReadText call. The database's schema is
// filled in as declarations and first tuples arrive.
type loader struct {
	d    *Database
	rels map[string]*loadRel
	last *loadRel // the previous tuple line's entry
}

// loadRel is what the loader knows about one relation name.
type loadRel struct {
	name  string
	lines int       // tuple lines in the input, counted before loading
	rel   *Relation // nil until the first tuple line is loaded
}

// rel returns the entry for a relation name, creating it when new. It
// tries the previous line's entry before the map: names come in runs.
func (ld *loader) rel(name []byte) *loadRel {
	if ld.last != nil && ld.last.name == string(name) {
		return ld.last
	}
	lr, ok := ld.rels[string(name)]
	if !ok {
		lr = &loadRel{name: string(name)}
		ld.rels[lr.name] = lr
	}
	ld.last = lr
	return lr
}

// cutName splits a tuple line at its first space or tab into the
// relation name and the untrimmed field list, which is nil when the
// line is a name alone.
func cutName(line []byte) (name, fields []byte) {
	for i, c := range line {
		if c == ' ' || c == '\t' {
			return line[:i], line[i+1:]
		}
	}
	return line, nil
}

var newline, comma = []byte{'\n'}, []byte{','}

// count is the first pass: it tallies tuple lines per relation name.
func (ld *loader) count(line []byte) error {
	if line[0] != '@' {
		name, _ := cutName(line)
		ld.rel(name).lines++
	}
	return nil
}

// line is the second pass: it loads one declaration or tuple line.
func (ld *loader) line(line []byte) error {
	if line[0] == '@' {
		return ld.declare(line)
	}
	return ld.tuple(line)
}

// declare handles "@<name> <arity>".
func (ld *loader) declare(line []byte) error {
	f := bytes.Fields(line[1:])
	n, ok := int64(0), false
	if len(f) == 2 {
		n, ok = parseInt(f[1])
	}
	if !ok || n < 0 || int64(int(n)) != n {
		return fmt.Errorf("bad declaration %q: want '@<rel> <arity>' with a non-negative arity", line)
	}
	name, arity := string(f[0]), int(n)
	if prev, ok := ld.d.schema[name]; ok && prev != arity {
		return fmt.Errorf("relation %s redeclared with arity %d (was %d)", name, arity, prev)
	}
	ld.d.schema[name] = arity
	return nil
}

// tuple handles "<rel> <v1,v2,...>", and the bare "<rel>" that is the
// empty tuple of a relation declared with arity 0. A relation is built
// only once a tuple line of its arity is in hand, so a declared arity
// costs nothing until the input backs it with a line that long.
func (ld *loader) tuple(line []byte) error {
	name, fields := cutName(line)
	fields = bytes.TrimSpace(fields)
	arity := 0
	if len(fields) > 0 {
		arity = bytes.Count(fields, comma) + 1
	}
	lr := ld.rel(name)
	want := arity
	if lr.rel != nil {
		want = lr.rel.arity
	} else if a, ok := ld.d.schema[lr.name]; ok {
		want = a
	} else if arity == 0 {
		return fmt.Errorf("expected '<rel> <v1,v2,...>', got %q", line)
	}
	if arity != want {
		return fmt.Errorf("tuple arity %d for relation %s of arity %d", arity, name, want)
	}
	r := lr.rel
	if r == nil {
		r = NewRelationSized(arity, lr.lines)
		lr.rel = r
		ld.d.schema[lr.name], ld.d.rels[lr.name] = arity, r
	}
	ids := r.idbuf
	for k := range ids {
		var f []byte
		f, fields, _ = bytes.Cut(fields, comma)
		ids[k] = r.intern.internText(bytes.TrimSpace(f))
	}
	r.addIDs(ids)
	return nil
}

// parseInt decodes b as strconv.ParseInt(string(b), 10, 64) would,
// without its error path: ok is false exactly when ParseInt fails.
func parseInt(b []byte) (n int64, ok bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // |MinInt64|
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > limit/10 {
			return 0, false
		}
		if u = u*10 + d; u > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), u < limit
}
