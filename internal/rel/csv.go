package rel

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
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
// ReadText makes two passes over its input through one read buffer of
// readBuf bytes, which grows only for a longer line; both run one line
// scanner, loader.scan. The first counts each relation's tuple lines
// so its storage is reserved once; the second loads, allocating per
// relation and per chunk of strings, not per tuple: fields are sliced
// in place in one walk of the line, integers decoded by a byte loop,
// every field interned straight into the database's dictionary in file
// order (a string is copied only the first time the database sees it,
// into a chunk the dictionary owns), and the row's IDs are staged in
// the loader's columns for the relation. A relation's staged rows go into its
// row index as one batch when BatchCap of them are staged, and at the
// end of the input. No slice of the buffer outlives the call. An input
// that cannot seek back for the second pass, such as a pipe, is read
// into memory once and parsed from there by the same code.

// WriteText writes a store in the text format. It accepts any ReadStore
// backend; relations are emitted in name order and tuples in sorted
// order, so equal stores of any backend serialize identically.
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
	in, seekable := r.(io.ReadSeeker)
	var start int64
	var err error
	if seekable {
		start, err = in.Seek(0, io.SeekCurrent)
	}
	if !seekable || err != nil {
		data, err := slurp(r)
		if err != nil {
			return nil, err
		}
		in, start = bytes.NewReader(data), 0
	}
	ld := loader{d: NewDatabase(Schema{}), rels: make(map[string]*loadRel)}
	buf := make([]byte, readBuf)
	for _, load := range []bool{false, true} {
		if _, err = in.Seek(start, io.SeekStart); err != nil {
			return nil, fmt.Errorf("seeking to the start of the input: %w", err)
		}
		if buf, err = ld.scan(in, buf, load); err != nil {
			return nil, err
		}
	}
	for _, lr := range ld.rels {
		if lr.rel != nil {
			lr.flush()
		}
	}
	return ld.d, nil
}

// readBuf is the starting size of ReadText's one read buffer.
const readBuf = 64 << 10

// slurp reads r to its end. A reader that can say how much it holds
// through Len gets a buffer of that size at once; any other is read
// into one that doubles as it fills, which allocates about three times
// the input.
func slurp(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if r, ok := r.(interface{ Len() int }); ok {
		buf.Grow(r.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// scan is one pass: it reads r to its end through buf, finds each line
// end with one IndexByte, carries the line a read does not end to the
// front of buf, and handles every line that is neither blank nor a
// comment, trimmed. The counting pass (load false) tallies tuple lines
// per relation; the loading pass loads declarations and tuples. scan
// stops at the first error, or at a relation or dictionary that fills
// up (capacityError), which it returns prefixed with the line number.
// A line longer than buf grows it; scan returns the buffer it ended
// with, for the next pass to reuse.
func (ld *loader) scan(r io.Reader, buf []byte, load bool) (_ []byte, err error) {
	lineno, held := 0, 0 // buf[:held] is a line the last read did not end
	defer func() {
		// A relation or dictionary that fills up is the input's fault,
		// not a broken invariant: report it with its line.
		if p := recover(); p != nil {
			full, ok := p.(capacityError)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("line %d: %w", lineno, full)
		}
	}()
	for {
		n, rerr := r.Read(buf[held:])
		data := buf[:held+n]
		for len(data) > 0 {
			line := data
			if i := bytes.IndexByte(data, '\n'); i >= 0 {
				line, data = data[:i], data[i+1:]
			} else if rerr != io.EOF {
				break // the line goes on in the next read
			} else {
				data = nil
			}
			lineno++
			if spaceAtEdge(line) {
				line = bytes.TrimSpace(line)
			}
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			switch {
			case line[0] == '@':
				if load {
					err = ld.declare(line)
				}
			case load:
				err = ld.tuple(line)
			default:
				lr, _ := ld.rel(line)
				lr.lines++
			}
			if err != nil {
				return buf, fmt.Errorf("line %d: %w", lineno, err)
			}
		}
		switch held = copy(buf, data); {
		case rerr == io.EOF:
			return buf, nil
		case rerr != nil:
			return buf, rerr
		case held == len(buf):
			buf = slices.Grow(buf, len(buf))
			buf = buf[:cap(buf)]
		}
	}
}

// spaceAtEdge reports whether b's first or last byte is ASCII space or
// control, or part of a multi-byte rune (U+0085, U+00A0, ...): only
// such a line or field can need bytes.TrimSpace, so passing only those
// to it trims exactly what TrimSpace trims.
func spaceAtEdge(b []byte) bool {
	return len(b) > 0 && (b[0] <= ' ' || b[0] >= utf8.RuneSelf || b[len(b)-1] <= ' ' || b[len(b)-1] >= utf8.RuneSelf)
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
	// stage holds staged rows of rel as columns of room; the rest of
	// the relation's rows are in its row index.
	stage        [][]uint32
	staged, room int
	cut          [][]byte // the fields of the line being loaded, one per column
}

// flush inserts the staged rows into the relation's row index, in file
// order.
func (lr *loadRel) flush() {
	lr.rel.rows.insertBatch(lr.stage, lr.staged, nil)
	lr.staged = 0
}

// rel splits a trimmed tuple line at its first space or tab into the
// entry of its relation name, created when new, and its untrimmed field
// list, nil when the line is a name alone. Names come in runs, so the
// previous line's name (which holds no space or tab) is first tried as
// a prefix of the line.
func (ld *loader) rel(line []byte) (*loadRel, []byte) {
	if lr := ld.last; lr != nil && len(line) >= len(lr.name) && string(line[:len(lr.name)]) == lr.name {
		switch n := len(lr.name); {
		case n == len(line):
			return lr, nil
		case line[n] == ' ' || line[n] == '\t':
			return lr, line[n+1:]
		}
	}
	name, fields := line, []byte(nil)
	if i := bytes.IndexAny(line, " \t"); i >= 0 {
		name, fields = line[:i], line[i+1:]
	}
	lr, ok := ld.rels[string(name)]
	if !ok {
		lr = &loadRel{name: string(name)}
		ld.rels[lr.name] = lr
	}
	ld.last = lr
	return lr, fields
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
// empty tuple of a relation declared with arity 0. The field list is
// walked once, one IndexByte per field, and its arity checked before
// any field is interned: every field but the last must end at a comma
// and the last must hold none. (The line is trimmed, so a field list
// is never all white space.) Only a relation's first line, whose arity
// create still has to learn, and a line of the wrong arity, whose
// error names it, count the commas.
func (ld *loader) tuple(line []byte) error {
	lr, fields := ld.rel(line)
	if lr.rel == nil {
		if err := ld.create(lr, line, fields); err != nil {
			return err
		}
	}
	r, cut := lr.rel, lr.cut
	rest, ok := fields, (len(fields) == 0) == (r.arity == 0)
	for k := 0; ok && k < len(cut); k++ {
		f, i := rest, bytes.IndexByte(rest, ',')
		if i >= 0 {
			f, rest = rest[:i], rest[i+1:]
		}
		if spaceAtEdge(f) {
			f = bytes.TrimSpace(f)
		}
		cut[k], ok = f, (i >= 0) == (k < len(cut)-1)
	}
	if !ok {
		return fmt.Errorf("tuple arity %d for relation %s of arity %d", arity(fields), lr.name, r.arity)
	}
	for k, col := range lr.stage {
		col[lr.staged] = r.intern.internText(cut[k])
	}
	lr.staged++
	// A full stage goes in at once. So does a stage whose rows could
	// fill the relation up, which near the row limit is every row: the
	// row that finds the relation full then panics while its own line
	// is read, and scan reports that line. No other flush, the one at
	// the end of the input included, can fill the relation up.
	if lr.staged == lr.room || r.rows.n+lr.staged >= maxRows {
		lr.flush()
	}
	return nil
}

// create builds the relation of a name's first tuple line. A relation
// is built only once a tuple line of its arity is in hand — the
// declared arity, or the line's own for an undeclared name — so a
// declared arity costs nothing until the input backs it with a line
// that long.
func (ld *loader) create(lr *loadRel, line, fields []byte) error {
	n := arity(fields)
	want := n
	if a, ok := ld.d.schema[lr.name]; ok {
		want = a
	} else if n == 0 {
		return fmt.Errorf("expected '<rel> <v1,v2,...>', got %q", line)
	}
	if n != want {
		return fmt.Errorf("tuple arity %d for relation %s of arity %d", n, lr.name, want)
	}
	r := newRelation(n, ld.d.dict)
	r.Reserve(lr.lines)
	lr.rel, lr.room, lr.cut, lr.stage = r, min(lr.lines, BatchCap), make([][]byte, n), make([][]uint32, n)
	for k := range lr.stage {
		lr.stage[k] = make([]uint32, lr.room)
	}
	ld.d.schema[lr.name], ld.d.rels[lr.name] = n, r
	return nil
}

// arity returns the number of fields in a tuple line's field list.
func arity(fields []byte) int {
	if len(fields) == 0 {
		return 0
	}
	return bytes.Count(fields, []byte{','}) + 1
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
