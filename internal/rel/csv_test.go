package rel

import (
	"bufio"
	"bytes"
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
// schema, and per relation the same tuples in the same insertion order
// under the same dictionary IDs.
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

// FuzzReadText checks that ReadText never panics and, away from the
// deliberate divergences, agrees with the oracle on error-or-not and
// on everything it loads.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadText(bytes.NewReader(data))
		if (got == nil) == (err == nil) {
			t.Fatalf("ReadText returned database %v with error %v", got != nil, err)
		}
		if divergesFromOracle(data) {
			return
		}
		want, werr := readTextOracle(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadText error %v, oracle error %v", err, werr)
		}
		if err == nil {
			sameLoad(t, got, want)
		}
	})
}

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
// input buffer (the text is read whole), the reserved ID columns and
// dedup index, and the dictionary — no decoded row beside them. The
// string file has a distinct string for every second tuple, so there
// the dictionary (values, index, string chunks) is most of it.
func TestReadTextFootprint(t *testing.T) {
	const tuples = 100000
	for _, tc := range []struct {
		name    string
		file    []byte
		ceiling float64
	}{
		{"integers", integerFile(tuples), 64},
		{"strings", stringFile(tuples), 132},
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
		// The input buffer is charged at its length: a race build's
		// bytes.Buffer allocates it twice over.
		buffer := allocatedBytes(func() { _, _ = slurp(bytes.NewReader(tc.file)) })
		perTuple := float64(got-buffer+uint64(len(tc.file))) / tuples
		t.Logf("%s: %.1f B allocated per loaded tuple, %.1f of them the input buffer", tc.name, perTuple, float64(len(tc.file))/tuples)
		if perTuple > tc.ceiling {
			t.Errorf("%s: %.1f B allocated per loaded tuple, want at most %.0f", tc.name, perTuple, tc.ceiling)
		}
	}
}

// ReadText sizes its buffer from a reader that knows its length (Len
// for the in-memory readers, Stat for a file) and falls back to a
// doubling buffer for any other; all three must load the same database.
func TestReadTextKnownSizeReaders(t *testing.T) {
	var file bytes.Buffer
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&file, "R %d,v%d\n", i, i%100)
	}
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := readTextOracle(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"Len":    bytes.NewReader(file.Bytes()),
		"Stat":   f,
		"opaque": struct{ io.Reader }{bytes.NewReader(file.Bytes())},
	} {
		got, err := ReadText(r)
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		sameLoad(t, got, want)
	}

	sized := testing.AllocsPerRun(5, func() { _, _ = slurp(bytes.NewReader(file.Bytes())) })
	opaque := testing.AllocsPerRun(5, func() { _, _ = slurp(struct{ io.Reader }{bytes.NewReader(file.Bytes())}) })
	if sized > opaque/4 {
		t.Errorf("slurp made %.0f allocations with a known length and %.0f without; want one buffer, not a doubling series", sized, opaque)
	}
}
