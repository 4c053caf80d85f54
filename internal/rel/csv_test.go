package rel

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// readTextOracle is ReadText as it stood before the streaming loader,
// kept verbatim as the reference the fuzz target compares against.
func readTextOracle(r io.Reader) (*Database, error) {
	schema := Schema{}
	type row struct {
		rel  string
		vals Tuple
	}
	var rows []row
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@") {
			var name string
			var arity int
			if _, err := fmt.Sscanf(line, "@%s %d", &name, &arity); err != nil {
				return nil, fmt.Errorf("line %d: bad declaration %q: %v", lineno, line, err)
			}
			if prev, ok := schema[name]; ok && prev != arity {
				return nil, fmt.Errorf("line %d: relation %s redeclared with arity %d (was %d)", lineno, name, arity, prev)
			}
			schema[name] = arity
			continue
		}
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return nil, fmt.Errorf("line %d: expected '<rel> <v1,v2,...>', got %q", lineno, line)
		}
		name := line[:sp]
		fields := strings.Split(strings.TrimSpace(line[sp+1:]), ",")
		t := make(Tuple, len(fields))
		for i, f := range fields {
			t[i] = ParseValue(strings.TrimSpace(f))
		}
		if a, ok := schema[name]; ok {
			if a != len(t) {
				return nil, fmt.Errorf("line %d: tuple arity %d for relation %s of arity %d", lineno, len(t), name, a)
			}
		} else {
			schema[name] = len(t)
		}
		rows = append(rows, row{name, t})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := NewDatabase(schema)
	for _, rw := range rows {
		d.Add(rw.rel, rw.vals)
	}
	return d, nil
}

// plainDeclaration matches the declarations the oracle and ReadText
// read alike. The oracle's Sscanf also took a negative arity and
// ignored anything after the arity; ReadText rejects both.
var plainDeclaration = regexp.MustCompile(`^@[!-~]+[ \t]+[0-9]{1,18}$`)

// divergesFromOracle reports whether the input exercises one of the
// two deliberate differences between ReadText and the oracle: strict
// declarations, and a bare relation name as the empty tuple of an
// arity-0 relation (always an error in the oracle). It also covers the
// oracle's 4 MiB line limit, which ReadText does not have.
func divergesFromOracle(data []byte) bool {
	if len(data) >= 1<<22 {
		return true
	}
	for _, raw := range bytes.Split(data, []byte{'\n'}) {
		line := bytes.TrimSpace(raw)
		switch {
		case len(line) == 0 || line[0] == '#':
		case line[0] == '@':
			if !plainDeclaration.Match(line) {
				return true
			}
		case !bytes.ContainsAny(line, " \t"):
			return true
		}
	}
	return false
}

// sameLoad fails unless got is exactly what the oracle built: same
// schema, and per relation the same dictionary in the same order and
// the same tuples in the same insertion order under the same IDs.
func sameLoad(t *testing.T, got, want *Database) {
	t.Helper()
	if len(got.Schema()) != len(want.Schema()) {
		t.Fatalf("schema %v, oracle %v", got.Schema(), want.Schema())
	}
	for name, a := range want.Schema() {
		if ga, ok := got.Schema()[name]; !ok || ga != a {
			t.Fatalf("schema %v, oracle %v", got.Schema(), want.Schema())
		}
		// Only loaded relations are compared: Rel would build an empty
		// one, with a column slice as long as any arity the input declares.
		g, w := got.rels[name], want.rels[name]
		if g == nil && w == nil {
			continue
		}
		if g == nil || w == nil {
			t.Fatalf("%s: loaded %v, oracle loaded %v", name, g != nil, w != nil)
		}
		if g.Len() != w.Len() {
			t.Fatalf("%s: %d tuples, oracle %d", name, g.Len(), w.Len())
		}
		if gd, wd := dictOrder(g.Interner()), dictOrder(w.Interner()); !gd.Equal(wd) {
			t.Fatalf("%s: dictionary order %v, oracle %v", name, gd, wd)
		}
		gc, _ := g.IDColumns()
		wc, _ := w.IDColumns()
		for i := 0; i < w.Len(); i++ {
			if !g.At(i).Equal(w.At(i)) {
				t.Fatalf("%s[%d] = %v, oracle %v", name, i, g.At(i), w.At(i))
			}
			for k := range wc {
				if gc[k][i] != wc[k][i] {
					t.Fatalf("%s[%d] column %d has ID %d, oracle %d", name, i, k+1, gc[k][i], wc[k][i])
				}
			}
		}
	}
}

// FuzzReadText checks that ReadText never panics, that a reader it
// streams and one it must read into memory load the same, and, away
// from the deliberate divergences, that it agrees with the oracle on
// error-or-not, on the line an error names and on everything it loads.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadText(bytes.NewReader(data))
		if (got == nil) == (err == nil) {
			t.Fatalf("ReadText returned database %v with error %v", got != nil, err)
		}
		inMemory, merr := ReadText(struct{ io.Reader }{bytes.NewReader(data)})
		if fmt.Sprint(merr) != fmt.Sprint(err) {
			t.Fatalf("unseekable reader: error %v, seekable %v", merr, err)
		}
		if err == nil {
			sameLoad(t, inMemory, got)
		}
		if divergesFromOracle(data) {
			return
		}
		want, werr := readTextOracle(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || err != nil && errorLine(err) != errorLine(werr) {
			t.Fatalf("ReadText error %v, oracle error %v", err, werr)
		}
		if err == nil {
			sameLoad(t, got, want)
		}
	})
}

// errorLine returns the "line N:" an error message starts with, or the
// whole message when it names no line.
func errorLine(err error) string {
	if m := lineOfError.FindString(err.Error()); m != "" {
		return m
	}
	return err.Error()
}

var lineOfError = regexp.MustCompile(`^line [0-9]+:`)

// seedCorpus returns the inputs committed under testdata/fuzz.
func seedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzReadText/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	out := make(map[string][]byte, len(files))
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a single-[]byte corpus file", file)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out[filepath.Base(file)] = []byte(s)
	}
	return out
}

// TestParseIntAgreesWithParseValue runs every field of the seed corpus
// through the loader's byte-level decoder and through ParseValue.
func TestParseIntAgreesWithParseValue(t *testing.T) {
	fields := 0
	for name, data := range seedCorpus(t) {
		for _, f := range bytes.FieldsFunc(data, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' || r == '\r' }) {
			fields++
			want := ParseValue(string(f))
			n, ok := parseInt(f)
			if ok != want.IsInt() || (ok && n != want.AsInt()) {
				t.Errorf("%s: parseInt(%q) = %d, %v; ParseValue gives %#v", name, f, n, ok, want)
			}
			in := NewInterner()
			if got := in.Value(in.internText(f)); got != want {
				t.Errorf("%s: internText(%q) interned %#v, want %#v", name, f, got, want)
			}
		}
	}
	if fields < 100 {
		t.Errorf("only %d corpus fields checked", fields)
	}
}

// TestReadTextCorpusOutcomes pins what the loader does with the seeds
// that target one behaviour each.
func TestReadTextCorpusOutcomes(t *testing.T) {
	corpus := seedCorpus(t)
	load := func(name string) *Database {
		t.Helper()
		d, err := ReadText(bytes.NewReader(corpus[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return d
	}
	if d := load("integers"); !d.Rel("N").Equal(FromTuples(1,
		T(Int(5)), T(Int(7)), T(Int(0)), T(Str("-")), T(Str("+")),
		T(Int(9223372036854775807)), T(Str("9223372036854775808")),
		T(Int(-9223372036854775808)), T(Str("-9223372036854775809")),
		T(Str("18446744073709551616")), T(Int(12)), T(Str("1_000")), T(Str("0x10")),
		T(Str("1e3")), T(Str("1.5")), T(Str("--1")), T(Str("1-")))) {
		t.Errorf("integers loaded as\n%s", d)
	}
	if d := load("long-line"); d.Rel("L").Len() != 2 || len(d.Rel("L").At(0)[0].AsString()) != 70000 {
		t.Errorf("long line lost: %d tuples", d.Rel("L").Len())
	}
	if d := load("crlf"); !d.Rel("R").Equal(FromRows(2, []int64{1, 2}, []int64{3, 4})) || !d.Rel("S").Contains(T(Str("a"))) {
		t.Errorf("crlf loaded as\n%s", d)
	}
	if d := load("tabs"); !d.Rel("R").Equal(FromRows(2, []int64{1, 2}, []int64{3, 4})) || !d.Rel("S").Contains(T(Str("x"))) {
		t.Errorf("tabs loaded as\n%s", d)
	}
	if d := load("empty-fields"); !d.Rel("R").Contains(T(Str(""), Str(""))) || d.Rel("R").Len() != 3 || d.Rel("S").Len() != 1 {
		t.Errorf("empty fields loaded as\n%s", d)
	}
	if d := load("no-trailing-newline"); !d.Rel("R").Contains(T(Str("beer"), Str("bar"))) {
		t.Errorf("last line lost:\n%s", d)
	}
	if d := load("late-redeclaration"); d.Rel("R").Len() != 2 || d.Rel("T").Arity() != 3 {
		t.Errorf("late redeclaration loaded as\n%s", d)
	}
	if d := load("inner-space"); !d.Rel("R").Equal(FromTuples(2, T(Str("a b"), Str("c d")), T(Str("a b"), Str("c\td")),
		T(Str("1 2"), Int(3)), T(Str("a  b"), Str("c d")))) || d.Rel("S").Len() != 2 {
		t.Errorf("inner spaces loaded as\n%s", d)
	}
	if d := load("nbsp-nel-edges"); !d.Rel("R").Equal(FromTuples(2, T(Int(1), Int(2)), T(Int(3), Int(4)), T(Str("a"), Str("b")),
		T(Int(5), Int(6)), T(Int(7), Int(8)), T(Str(""), Str("x")))) ||
		!d.Rel("R\u00a0").Contains(T(Int(9), Int(10))) || !d.Rel("R\u0085").Contains(T(Int(11), Int(12))) {
		t.Errorf("U+00A0 and U+0085 loaded as\n%s", d)
	}
	if d := load("empty-last-field"); !d.Rel("R").Equal(FromTuples(2, T(Int(1), Str("")), T(Int(2), Str("")), T(Str(""), Str("")), T(Int(3), Str("")))) ||
		!d.Rel("S").Equal(FromTuples(3, T(Int(1), Str(""), Str("")), T(Int(1), Int(2), Str("")))) {
		t.Errorf("empty last fields loaded as\n%s", d)
	}
	if d := load("crlf-ints"); !d.Rel("R").Equal(FromRows(2, []int64{1, 2}, []int64{10, -3}, []int64{4, 5}, []int64{7, 8}, []int64{6, 7})) ||
		!d.Rel("S").Equal(FromRows(1, []int64{9}, []int64{0})) {
		t.Errorf("CRLF integers loaded as\n%s", d)
	}
	if _, err := ReadText(bytes.NewReader(corpus["name-switches"])); err == nil || !strings.HasPrefix(err.Error(), "line 16: ") {
		t.Errorf("name-switches: error %v, want one on line 16", err)
	}
	for _, name := range []string{"redeclared-arity", "arity-mismatch", "huge-declared-arity", "large-declared-arity", "strict-declarations", "unicode-space"} {
		if _, err := ReadText(bytes.NewReader(corpus[name])); err == nil || !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("%s: error %v, want a 'line N:' error", name, err)
		}
	}
}

// TestReadTextAllocations pins the loader's allocation profile: it
// allocates per relation and per chunk of distinct strings, not per
// tuple and not per string.
func TestReadTextAllocations(t *testing.T) {
	const tuples = 20000
	var ints, strs bytes.Buffer
	for i := 0; i < tuples; i++ {
		fmt.Fprintf(&ints, "R %d,%d\n", i/20, 1000000+i%977)
		fmt.Fprintf(&strs, "Likes drinker%d,beer%d\n", i/20, i%977)
	}
	const distinctStrings = tuples/20 + 977
	load := func(file []byte) func() {
		return func() {
			if d, err := ReadText(bytes.NewReader(file)); err != nil || d.Size() != tuples {
				t.Fatalf("ReadText: %v", err)
			}
		}
	}
	if perTuple := testing.AllocsPerRun(5, load(ints.Bytes())) / tuples; perTuple > 0.05 {
		t.Errorf("integer file: %.4f allocs/tuple, want at most 0.05", perTuple)
	}
	if perString := testing.AllocsPerRun(5, load(strs.Bytes())) / distinctStrings; perString > 0.05 {
		t.Errorf("string file: %.4f allocs per distinct string, want at most 0.05", perString)
	}
}

// integerFile is an n-line text database of one binary integer
// relation R: n distinct tuples over n/20 + 977 distinct values.
func integerFile(n int) []byte {
	var file bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&file, "R %d,%d\n", i/20, 1000000+i%977)
	}
	return file.Bytes()
}

// stringFile is an n-line text database of one binary relation Likes
// over n/2 + 977 distinct strings.
func stringFile(n int) []byte {
	var file bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&file, "Likes drinker-%06d,beer-%06d\n", i/2, i%977)
	}
	return file.Bytes()
}

// TestReadTextFootprint holds the bytes a load allocates per tuple: the
// reserved ID columns and dedup index, the dictionary and the one read
// buffer — no copy of the input, no decoded row and no earlier copy of
// a dictionary's values beside them. The string file has a distinct
// string for every second tuple, so there the dictionary (words,
// index, string chunks) is most of it.
func TestReadTextFootprint(t *testing.T) {
	const tuples = 100000
	for _, tc := range []struct {
		name    string
		file    []byte
		ceiling float64
	}{
		{"integers", integerFile(tuples), 30},
		{"strings", stringFile(tuples), 62},
	} {
		var d *Database
		got := allocatedBytes(func() {
			var err error
			if d, err = ReadText(bytes.NewReader(tc.file)); err != nil {
				t.Fatalf("ReadText: %v", err)
			}
		})
		if d.Size() != tuples {
			t.Fatalf("%s: loaded %d tuples, want %d", tc.name, d.Size(), tuples)
		}
		perTuple := float64(got) / tuples
		t.Logf("%s: %.1f B allocated per loaded tuple", tc.name, perTuple)
		if perTuple > tc.ceiling {
			t.Errorf("%s: %.1f B allocated per loaded tuple, want at most %.0f", tc.name, perTuple, tc.ceiling)
		}
	}
}

// ReadText streams a reader it can seek back to where it started (a
// bytes.Reader, a file, a file already past its first line) and reads
// any other into memory once (a pipe, a bytes.Buffer, which has Len but
// no Seek, an opaque io.Reader); each must load what the oracle loads
// from the bytes it has left.
func TestReadTextKnownSizeReaders(t *testing.T) {
	var file bytes.Buffer
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&file, "R %d,v%d\n", i, i%100)
	}
	data := file.Bytes()
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	firstLine := bytes.IndexByte(data, '\n') + 1
	advanced := open()
	if _, err := io.ReadFull(advanced, make([]byte, firstLine)); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		_, _ = pw.Write(data) // fails only once the test has closed the read end
		pw.Close()
	}()
	t.Cleanup(func() {
		pr.Close()
		<-written
	})
	for _, tc := range []struct {
		name string
		r    io.Reader
		skip int // bytes the reader has already consumed
	}{
		{"bytes.Reader", bytes.NewReader(data), 0},
		{"file", open(), 0},
		{"file past its first line", advanced, firstLine},
		{"pipe", pr, 0},
		{"bytes.Buffer", bytes.NewBuffer(data), 0},
		{"opaque", struct{ io.Reader }{bytes.NewReader(data)}, 0},
	} {
		want, err := readTextOracle(bytes.NewReader(data[tc.skip:]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadText(tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameLoad(t, got, want)
	}

	// A file is streamed: it loads without the copy of itself that an
	// unseekable reader over it needs.
	streamed := allocatedBytes(func() { _, _ = ReadText(open()) })
	inMemory := allocatedBytes(func() { _, _ = ReadText(struct{ io.Reader }{open()}) })
	if streamed+uint64(len(data)) > inMemory {
		t.Errorf("loading the file allocated %d B, loading it through an unseekable reader %d B: want at least the file's %d B less", streamed, inMemory, len(data))
	}

	sized := testing.AllocsPerRun(5, func() { _, _ = slurp(bytes.NewBuffer(data)) })
	opaque := testing.AllocsPerRun(5, func() { _, _ = slurp(struct{ io.Reader }{bytes.NewReader(data)}) })
	if sized > opaque/4 {
		t.Errorf("slurp made %.0f allocations with a known length and %.0f without; want one buffer, not a doubling series", sized, opaque)
	}
}

// shortReader is a seekable reader whose Read returns at most max
// bytes, and io.EOF with the last of them when eofWithData is set.
type shortReader struct {
	*bytes.Reader
	max         int
	eofWithData bool
}

func (r shortReader) Read(p []byte) (int, error) {
	n, err := r.Reader.Read(p[:min(len(p), r.max)])
	if err == nil && r.eofWithData && r.Len() == 0 {
		err = io.EOF
	}
	return n, err
}

// TestReadTextBufferBoundaries: ReadText carries the line a read does
// not end to the next read, so every way a line can be split across
// reads must load what the oracle loads and fail on the line the
// oracle fails on. The inputs are the seed corpus and a file of several
// relations, read 1, 7 and 4096 bytes at a time, and a file in which
// the end of the first full buffer falls on each byte of one tuple
// line in turn.
func TestReadTextBufferBoundaries(t *testing.T) {
	check := func(name string, data []byte, r io.Reader) error {
		t.Helper()
		got, err := ReadText(r)
		want, werr := readTextOracle(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || err != nil && errorLine(err) != errorLine(werr) {
			t.Fatalf("%s: error %v, oracle error %v", name, err, werr)
		}
		if err == nil {
			sameLoad(t, got, want)
		}
		return err
	}

	inputs := seedCorpus(t)
	var mixed bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&mixed, "R %d,v%d\r\n# %d\n\nS \u00a0s%d\u0085\n T\t%d , %d,x\n", i, i%7, i, i%11, i%5, i)
	}
	inputs["mixed"] = mixed.Bytes()
	inputs["mixed, arity error"] = append(mixed.Bytes(), "T 1,2\n"...)
	if _, err := ReadText(bytes.NewReader(mixed.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, data := range inputs {
		if divergesFromOracle(data) {
			continue
		}
		for _, max := range []int{1, 7, 4096} {
			for _, eof := range []bool{false, true} {
				check(fmt.Sprintf("%s, %d-byte reads, EOF with data %v", name, max, eof), data,
					shortReader{bytes.NewReader(data), max, eof})
			}
		}
	}

	const line = "R \u00a0 12 ,beer\u0085\r\n"
	for k := 0; k <= len(line); k++ {
		// A comment pads the file so that line starts k bytes before
		// the end of the first buffer; the bad file has a third field
		// there.
		head := "@R 2\n#" + strings.Repeat("x", readBuf-k-7) + "\n"
		good := []byte(head + line + "R 13,ale\n" + line)
		bad := []byte(head + strings.Replace(line, ",beer", ",be,er", 1) + "R 13,ale\n")
		if i := bytes.Index(good, []byte(line)); i != readBuf-k {
			t.Fatalf("line starts at %d, want %d", i, readBuf-k)
		}
		if err := check(fmt.Sprintf("buffer ends %d bytes into the line", k), good, bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
		if err := check(fmt.Sprintf("buffer ends %d bytes into a bad line", k), bad, bytes.NewReader(bad)); err == nil || errorLine(err) != "line 3:" {
			t.Fatalf("bad line %d bytes before the buffer's end: error %v, want one on line 3", k, err)
		}
	}
}

// TestReadTextCapacityError: a relation or dictionary that fills up
// while loading ends ReadText with an error naming the line, not a
// panic. Duplicate lines and values already held at the limit load. The
// loader stages rows before they enter a relation's row index, so the
// limit is also hit with rows staged — of the relation itself after a
// batch has gone in, or of another relation — and the error still
// names the row's own line, as does an arity error on the line after
// staged rows.
func TestReadTextCapacityError(t *testing.T) {
	defer func(rows, values int) { maxRows, maxValues = rows, values }(maxRows, maxValues)
	// staged returns the lines "R i" for i in [lo, hi).
	staged := func(lo, hi int) string {
		var b strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&b, "R %d\n", i)
		}
		return b.String()
	}
	for _, c := range []struct {
		name, input        string
		maxRows, maxValues int
		want               error
		line               int
	}{
		{"rows", "@R 1\nR 1\nR 2\nR 1\n# comment\nR 3\n", 2, 3, errRowSetFull, 6},
		{"values", "@R 2\nR 1,2\nR 2,1\n\nR 3,4\n", 2, 3, errDictionaryFull, 5},
		{"rows, another relation's row staged", "@R 1\n@S 1\nR 1\nS 1\nS 2\nS 1\nS 3\n", 2, 3, errRowSetFull, 7},
		// A batch of BatchCap rows goes in, then BatchCap/2 more are
		// staged: the relation fills up partway through the second batch.
		{"rows, a batch in and more staged", "@R 1\n" + staged(0, BatchCap+BatchCap/2) + "R 0\nR -1\n",
			BatchCap + BatchCap/2, 1 << 20, errRowSetFull, BatchCap + BatchCap/2 + 3},
		{"arity after staged rows", "@R 1\n" + staged(0, 10) + "R 1,2\n" + staged(10, 20), 1 << 20, 1 << 20,
			errors.New("tuple arity 2 for relation R of arity 1"), 12},
	} {
		maxRows, maxValues = c.maxRows, c.maxValues
		_, err := ReadText(strings.NewReader(c.input))
		if want := fmt.Sprintf("line %d: %s", c.line, c.want); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", c.name, err, want)
		}
		if full, ok := c.want.(capacityError); ok && !errors.Is(err, full) {
			t.Errorf("%s: error %v does not wrap %q", c.name, err, full)
		}
	}
}
