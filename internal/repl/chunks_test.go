package repl

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/writeset"
)

// chunkCharge is what Chunks charges a run of values against
// LoadChunkBytes.
func chunkCharge(values []string) int {
	n := 0
	for _, v := range values {
		n += loadEntryOverhead + len(v)
	}
	return n
}

// recordHeader bounds what a wire.Records frame holding one record of
// table adds to the record's entries: frame length and type, flags,
// record count, the one-name table dictionary, and the record's
// version, trace, commit time and entry count.
func recordHeader(table string) int {
	return 4 + 1 + 1 + 1 + 1 + binary.MaxVarintLen64 + len(table) + 4*binary.MaxVarintLen64
}

// recordBytes is the size of the frame carrying rows as one record of
// a plain (uncompressed) wire.Records reply.
func recordBytes(t testing.TB, table string, rows []int64, values []string) int {
	t.Helper()
	var buf bytes.Buffer
	rec := wire.Record{Version: math.MaxInt64, WS: writeset.Rows(table, rows, values), Trace: math.MaxUint64, CommitNs: math.MinInt64}
	if err := wire.NewConn(&buf).Send(&wire.Records{Recs: []wire.Record{rec}}); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// checkChunks cuts rows and values with Chunks and asserts its
// invariants: the chunks concatenate back to the input in order, a
// multi-row chunk's charge is within LoadChunkBytes, cutting a chunk
// again returns it whole, and a chunk encoded as one wire.Records
// record costs at most its charge plus the record header. It returns
// the chunk sizes.
func checkChunks(t testing.TB, rows []int64, values []string) []int {
	t.Helper()
	const table = "item"
	var sizes []int
	var gotRows []int64
	var gotValues []string
	err := Chunks(rows, values, func(r []int64, v []string) error {
		if len(r) == 0 || len(r) != len(v) {
			t.Fatalf("chunk %d: %d rows, %d values", len(sizes), len(r), len(v))
		}
		charge := chunkCharge(v)
		if len(r) > 1 && charge > LoadChunkBytes {
			t.Fatalf("chunk %d: %d rows charge %d > LoadChunkBytes %d", len(sizes), len(r), charge, LoadChunkBytes)
		}
		again := 0
		if err := Chunks(r, v, func(r2 []int64, _ []string) error {
			again++
			if len(r2) != len(r) {
				t.Fatalf("chunk %d: re-cut to %d of its %d rows", len(sizes), len(r2), len(r))
			}
			return nil
		}); err != nil || again != 1 {
			t.Fatalf("chunk %d: re-cut into %d chunks (err %v), want it whole", len(sizes), again, err)
		}
		if n, limit := recordBytes(t, table, r, v), charge+recordHeader(table); n > limit {
			t.Fatalf("chunk %d: %d rows encode to %d bytes > charge %d + header %d", len(sizes), len(r), n, charge, recordHeader(table))
		}
		sizes = append(sizes, len(r))
		gotRows = append(gotRows, r...)
		gotValues = append(gotValues, v...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRows, rows) || !slices.Equal(gotValues, values) {
		t.Fatalf("chunks reassemble to %d rows, want the %d input rows in order", len(gotRows), len(rows))
	}
	return sizes
}

func TestChunks(t *testing.T) {
	fit := LoadChunkBytes/64 - loadEntryOverhead // 64 rows charge exactly LoadChunkBytes
	big := strings.Repeat("b", LoadChunkBytes)
	cases := []struct {
		name   string
		values []string
		want   []int
	}{
		{"no rows", nil, nil},
		{"empty values", make([]string, 40000), []int{16384, 16384, 7232}},
		{"tiny values", slices.Repeat([]string{"tiny"}, 40000), []int{13107, 13107, 13107, 679}}, // 20-byte charge
		{"exact boundary", slices.Repeat([]string{strings.Repeat("e", fit)}, 130), []int{64, 64, 2}},
		{"one byte over the boundary", slices.Repeat([]string{strings.Repeat("o", fit+1)}, 130), []int{63, 63, 4}},
		{"value over the budget travels alone", []string{"a", big, "c", "d"}, []int{1, 1, 2}},
		{"value filling the budget alone", []string{strings.Repeat("f", LoadChunkBytes-loadEntryOverhead), "g"}, []int{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := Rows(len(tc.values), func(int64) string { return "" })
			if got := checkChunks(t, rows, tc.values); !slices.Equal(got, tc.want) {
				t.Fatalf("chunk sizes %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCatalogLoadRecords pins how many load records a factor-1 catalog
// takes: one per repl.Chunks chunk of each table's loadValue rows.
func TestCatalogLoadRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		cat  workload.Catalog
		want int
	}{
		{"tpcw", workload.TPCWCatalog(), 25},
		{"rubis", workload.RUBiSCatalog(), 53},
	} {
		l := &chunkCounter{}
		if err := LoadCatalog(l, tc.cat, 1); err != nil {
			t.Fatal(err)
		}
		if l.records != tc.want {
			t.Errorf("%s: %d load records, want %d", tc.name, l.records, tc.want)
		}
	}
}

// chunkCounter is a Loader that counts the records a networked loader
// would send.
type chunkCounter struct{ records int }

func (*chunkCounter) CreateTable(string) error { return nil }

func (c *chunkCounter) Load(_ string, n int, value func(int64) string) error {
	rows, values := Rows(n, value)
	return Chunks(rows, values, func([]int64, []string) error {
		c.records++
		return nil
	})
}

// FuzzLoadChunks asserts the Chunks invariants on fuzzed loads. Each
// pair of spec bytes is a run of equal values: the second byte picks
// the value length (short, near LoadChunkBytes/k for small k, or
// filling or overflowing the budget alone), the first how much the run
// charges, up to 1 MiB (and at least one row). Row ids step by
// rowStep, so their varints take any width.
func FuzzLoadChunks(f *testing.F) {
	f.Add(int64(1), []byte{0, 0})
	f.Add(int64(1), []byte{255, 10, 3, 200, 0, 255, 1, 254})
	f.Add(int64(-1<<40), []byte{63, 207, 1, 253, 255, 0})
	f.Fuzz(func(t *testing.T, rowStep int64, spec []byte) {
		if len(spec) > 16 {
			spec = spec[:16]
		}
		var rows []int64
		var values []string
		for i := 0; i+1 < len(spec); i += 2 {
			v := strings.Repeat("v", fuzzValueLen(spec[i+1]))
			for n := max(1, (int(spec[i])+1)*4096/(len(v)+loadEntryOverhead)); n > 0; n-- {
				rows = append(rows, int64(len(rows))*rowStep)
				values = append(values, v)
			}
		}
		checkChunks(t, rows, values)
	})
}

// fuzzValueLen maps a spec byte to a value length: b itself below 200,
// the length that fits k = b-199 rows exactly into LoadChunkBytes up to
// 253, then values that fill the budget alone or overflow it.
func fuzzValueLen(b byte) int {
	switch {
	case b < 200:
		return int(b)
	case b < 254:
		return LoadChunkBytes/int(b-199) - loadEntryOverhead
	case b == 254:
		return LoadChunkBytes - loadEntryOverhead
	default:
		return LoadChunkBytes + 1
	}
}
