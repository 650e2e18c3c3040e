package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/quack"
)

// The fact table has the GenSalesTable shape (internal/bench): id
// BIGINT, region VARCHAR (8 distinct), qty BIGINT in 1..100, price
// DOUBLE, d BIGINT. Every column is a pure function of (seed, id), so a
// workload can compute what the database must hold without asking it.

var regions = []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}

const factDDL = "(id BIGINT, region VARCHAR, qty BIGINT, price DOUBLE, d BIGINT)"

// missingD is the encoded missing-value marker the ETL cleans to NULL.
const missingD = -999

type factRow struct {
	id     int64
	region string
	qty    int64
	price  float64
	d      int64
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// genFact returns row id of the fact table for seed. d is uniform in
// [0, dDomain), or missingD for missingPct percent of rows.
func genFact(seed uint64, id int64, dDomain int64, missingPct uint64) factRow {
	h := mix(seed ^ mix(uint64(id)))
	r := factRow{
		id:     id,
		region: regions[h%8],
		qty:    int64((h>>3)%100) + 1,
		price:  float64((h>>10)%100000) / 100,
		d:      int64(mix(h) % uint64(dDomain)),
	}
	if missingPct > 0 && (h>>40)%100 < missingPct {
		r.d = missingD
	}
	return r
}

// genDimW is the dim table's w column for key k: dim(k BIGINT, name
// VARCHAR, w BIGINT) with k = 0..n-1.
func genDimW(seed uint64, k int64) int64 { return int64(mix(seed^0xD1D1^uint64(k)) % 97) }

func genDimName(seed uint64, k int64) string {
	return "n" + strconv.FormatUint(mix(seed^0xA5A5^uint64(k))%500, 10)
}

// loadStats reports one bulk load through the Appender.
type loadStats struct {
	rows int64
	dur  time.Duration
}

// appendFact bulk-loads rows ids [first, first+n) into table through
// the Appender's chunk interface. keep, when non-nil, is called for
// every generated row (the ETL tracks what it acknowledged).
func appendFact(db *quack.DB, table string, seed uint64, first, n, dDomain int64, missingPct uint64, keep func(factRow)) (loadStats, error) {
	t0 := time.Now()
	app, err := db.Appender(table)
	if err != nil {
		return loadStats{}, err
	}
	for base := int64(0); base < n; base += 1024 {
		m := int(min(1024, n-base))
		c := app.NewChunk()
		c.SetLen(m)
		for i := 0; i < m; i++ {
			r := genFact(seed, first+base+int64(i), dDomain, missingPct)
			c.Cols[0].I64[i] = r.id
			c.Cols[1].Str[i] = r.region
			c.Cols[2].I64[i] = r.qty
			c.Cols[3].F64[i] = r.price
			c.Cols[4].I64[i] = r.d
			if keep != nil {
				keep(r)
			}
		}
		if err := app.AppendChunk(c); err != nil {
			app.Abort()
			return loadStats{}, err
		}
	}
	if err := app.Close(); err != nil {
		return loadStats{}, err
	}
	return loadStats{rows: n, dur: time.Since(t0)}, nil
}

// appendDim bulk-loads dim keys 0..n-1.
func appendDim(db *quack.DB, seed uint64, n int64) (loadStats, error) {
	t0 := time.Now()
	app, err := db.Appender("dim")
	if err != nil {
		return loadStats{}, err
	}
	for base := int64(0); base < n; base += 1024 {
		m := int(min(1024, n-base))
		c := app.NewChunk()
		c.SetLen(m)
		for i := 0; i < m; i++ {
			k := base + int64(i)
			c.Cols[0].I64[i] = k
			c.Cols[1].Str[i] = genDimName(seed, k)
			c.Cols[2].I64[i] = genDimW(seed, k)
		}
		if err := app.AppendChunk(c); err != nil {
			app.Abort()
			return loadStats{}, err
		}
	}
	if err := app.Close(); err != nil {
		return loadStats{}, err
	}
	return loadStats{rows: n, dur: time.Since(t0)}, nil
}

// writeFactCSV writes fact rows [first, first+n) as a header-less CSV
// file, calling keep for every row written.
func writeFactCSV(path string, seed uint64, first, n, dDomain int64, missingPct uint64, keep func(factRow)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for i := int64(0); i < n; i++ {
		r := genFact(seed, first+i, dDomain, missingPct)
		line = strconv.AppendInt(line[:0], r.id, 10)
		line = append(line, ',')
		line = append(line, r.region...)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.qty, 10)
		line = append(line, ',')
		line = strconv.AppendFloat(line, r.price, 'g', -1, 64)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.d, 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			_ = f.Close()
			return err
		}
		if keep != nil {
			keep(r)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
