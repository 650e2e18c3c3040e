package main

import (
	"testing"

	"repro/internal/vector"
	"repro/quack"
)

// The references are fingerprinted from boxed rows (row engine,
// generator) and the timed results from column slices: both must hash
// the same values identically.
func TestFingerprintChunksMatchesRows(t *testing.T) {
	colTypes := []quack.Type{quack.BigInt, quack.Integer, quack.Double, quack.Varchar, quack.Boolean}
	rows := [][]quack.Value{
		{{Type: quack.BigInt, I64: -7}, {Type: quack.Integer, I64: 3}, {Type: quack.Double, F64: 2.5}, {Type: quack.Varchar, Str: "emea"}, {Type: quack.Boolean, Bool: true}},
		{{Type: quack.BigInt, Null: true}, {Type: quack.Integer, I64: -1}, {Type: quack.Double, Null: true}, {Type: quack.Varchar, Str: ""}, {Type: quack.Boolean}},
		{{Type: quack.BigInt, I64: 1 << 40}, {Type: quack.Integer, Null: true}, {Type: quack.Double, F64: -0.125}, {Type: quack.Varchar, Null: true}, {Type: quack.Boolean, Null: true}},
	}
	// Split the rows over two chunks: chunk boundaries must not matter.
	a, b := vector.NewChunk(colTypes), vector.NewChunk(colTypes)
	a.AppendRow(rows[0]...)
	b.AppendRow(rows[1]...)
	b.AppendRow(rows[2]...)
	for _, ordered := range []bool{true, false} {
		got := fingerprintChunks([]*quack.Chunk{a, b}, ordered)
		want := fingerprintRows(rows, ordered)
		if got != want || got.rows != 3 {
			t.Errorf("ordered=%v: chunks %+v, rows %+v", ordered, got, want)
		}
	}
	// Order matters only when asked for.
	swapped := [][]quack.Value{rows[1], rows[0], rows[2]}
	if fingerprintRows(swapped, true) == fingerprintRows(rows, true) {
		t.Error("ordered fingerprint ignores row order")
	}
	if fingerprintRows(swapped, false) != fingerprintRows(rows, false) {
		t.Error("unordered fingerprint depends on row order")
	}
	// A changed value, or a NULL in place of a zero, changes the hash.
	changed := [][]quack.Value{rows[0], rows[1], {rows[2][0], {Type: quack.Integer, I64: 0}, rows[2][2], rows[2][3], rows[2][4]}}
	if fingerprintRows(changed, false) == fingerprintRows(rows, false) {
		t.Error("NULL and 0 fingerprint alike")
	}
}
