package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"bypassyield/internal/catalog"
	"bypassyield/internal/obs"
)

// Config parameterizes a database instance.
type Config struct {
	// SampleEvery materializes one of every N logical rows; 1 (or 0,
	// the default) materializes everything. Result cardinalities and
	// yields are always scaled back to logical size.
	SampleEvery int64
	// Seed drives deterministic data synthesis; the same (schema,
	// SampleEvery, Seed) triple always produces identical data.
	Seed int64
	// MaxResultRows bounds the number of materialized tuples carried
	// in a Result (the logical cardinality is unaffected). Zero means
	// the default of 64.
	MaxResultRows int
}

func (c *Config) fill() {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.MaxResultRows <= 0 {
		c.MaxResultRows = 64
	}
}

// DB is an in-memory column store holding synthesized data for a
// schema (or a per-site subset of one).
type DB struct {
	schema *catalog.Schema
	cfg    Config
	tables []tableData // parallel to schema.Tables

	// obs handles; nil (no-op) until SetObs is called.
	queries     *obs.Counter
	rowsScanned *obs.Counter
	yieldBytes  *obs.Counter
}

// tableData is the columnar storage of one table's sample. Nothing in
// it changes after Open.
type tableData struct {
	meta  *catalog.Table
	n     int
	cols  [][]float64 // parallel to meta.Columns
	names []string    // "table.column" output names, parallel to cols
	// dense is the position of a column whose row i holds i·SampleEvery,
	// as synthesis writes a key, or -1 for none: such a column is its own
	// index, and a join on it finds its row by arithmetic (denseJoin).
	dense int
}

// Open synthesizes a database for the schema. Generation is
// deterministic per column: each column's stream is seeded by the
// config seed and the qualified column name alone, so the columns are
// independent and Open synthesizes them in parallel, on GOMAXPROCS
// workers, without changing a bit of any of them. Every worker has
// returned when Open does.
func Open(s *catalog.Schema, cfg Config) (*DB, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	db := &DB{schema: s, cfg: cfg, tables: make([]tableData, len(s.Tables))}
	type column struct{ table, col int }
	var cols []column
	for i := range s.Tables {
		t := &s.Tables[i]
		n := int(t.Rows / cfg.SampleEvery)
		if n < 1 {
			n = 1
		}
		td := tableData{
			meta:  t,
			n:     n,
			cols:  make([][]float64, len(t.Columns)),
			names: make([]string, len(t.Columns)),
		}
		for j := range t.Columns {
			td.cols[j] = make([]float64, n)
			td.names[j] = t.Name + "." + t.Columns[j].Name
			cols = append(cols, column{i, j})
		}
		db.tables[i] = td
	}

	// Each worker takes the next column until none is left, reseeding
	// its one generator per column.
	var next atomic.Int64
	work := func() {
		r := rand.New(rand.NewSource(0))
		for k := int(next.Add(1) - 1); k < len(cols); k = int(next.Add(1) - 1) {
			td := &db.tables[cols[k].table]
			synthesize(td.cols[cols[k].col], &td.meta.Columns[cols[k].col], td.meta.Name, cfg, r)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(cols)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	for i := range db.tables {
		db.tables[i].dense = denseColumn(db.tables[i].cols, cfg.SampleEvery)
	}
	return db, nil
}

// synthesize fills vals with one column's sample values, drawing from
// r reseeded for the column.
//
// Key columns hold the logical identifiers of the sampled rows:
// i·SampleEvery. Integer columns whose name ends in "id" are snapped
// to the same sampling grid, so foreign keys always reference rows
// that exist in the referenced table's sample — joins behave at
// sample scale exactly as they would at full scale. Other integers
// are uniform over [Min, Max]; floats are uniform over [Min, Max).
func synthesize(vals []float64, col *catalog.Column, table string, cfg Config, r *rand.Rand) {
	if col.Key {
		for i := range vals {
			vals[i] = float64(int64(i) * cfg.SampleEvery)
		}
		return
	}
	r.Seed(colSeed(cfg.Seed, table, col.Name))
	isInt := col.Type == catalog.Int64 || col.Type == catalog.Int32 || col.Type == catalog.Int16
	gridID := isInt && strings.HasSuffix(col.Name, "id") && col.Max >= 1000
	span := col.Max - col.Min
	for i := range vals {
		switch {
		case gridID:
			slots := int64(col.Max-col.Min) / cfg.SampleEvery
			if slots < 1 {
				slots = 1
			}
			vals[i] = col.Min + float64(r.Int63n(slots)*cfg.SampleEvery)
		case isInt:
			vals[i] = math.Floor(col.Min + r.Float64()*(span+1))
			if vals[i] > col.Max {
				vals[i] = col.Max
			}
		default:
			vals[i] = col.Min + r.Float64()*span
		}
	}
}

// denseColumn returns the position of the first of cols whose row i
// holds i·every for every row, or -1 if none does. It checks the values
// and not catalog.Column.Key: the flag is what the join relies on, so it
// is true of the data or it is not set.
func denseColumn(cols [][]float64, every int64) int {
	for j, vals := range cols {
		i := 0
		for i < len(vals) && vals[i] == float64(int64(i)*every) {
			i++
		}
		if i == len(vals) {
			return j
		}
	}
	return -1
}

// colSeed derives a deterministic per-column seed.
func colSeed(seed int64, table, col string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s.%s", table, col)
	return seed ^ int64(h.Sum64())
}

// SetObs attaches an observability registry: the engine publishes
// executed statements (engine.queries), sample rows scanned
// (engine.rows_scanned), and logical yield produced
// (engine.yield_bytes). A nil registry detaches.
func (db *DB) SetObs(r *obs.Registry) {
	db.queries = r.Counter("engine.queries")
	db.rowsScanned = r.Counter("engine.rows_scanned")
	db.yieldBytes = r.Counter("engine.yield_bytes")
}

// Schema returns the schema the database was opened with.
func (db *DB) Schema() *catalog.Schema { return db.schema }

// SampleEvery returns the sampling factor.
func (db *DB) SampleEvery() int64 { return db.cfg.SampleEvery }

// SampleRows returns the number of materialized rows of a table, or 0
// if the table is unknown.
func (db *DB) SampleRows(table string) int {
	i := db.schema.TableIndex(table)
	if i < 0 {
		return 0
	}
	return db.tables[i].n
}
