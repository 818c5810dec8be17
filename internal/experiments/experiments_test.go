package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"bypassyield/internal/federation"
	"bypassyield/internal/obs/ledger"
)

// suite is shared across tests: trace generation dominates runtime,
// and the Suite caches traces, so building it once keeps the package
// fast.
var shared = NewSuite(30)

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := shared.Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table ID = %q, want %q", tab.ID, id)
	}
	return tab
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			v, err := strconv.ParseFloat(tab.Rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell %d/%s = %q: %v", row, col, tab.Rows[row][i], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Columns)
	return 0
}

// TestSuiteLedgerAttach: a suite with a ledger gets one decision
// record per simulated access, across every simulation it runs — fig7
// runs four policies over the same EDR table trace.
func TestSuiteLedgerAttach(t *testing.T) {
	s := NewSuite(30)
	s.Ledger = ledger.New(1 << 16)
	if _, err := s.Run("fig7"); err != nil {
		t.Fatal(err)
	}
	reqs, err := s.requests("edr", federation.Tables)
	if err != nil {
		t.Fatal(err)
	}
	var accesses int
	for _, r := range reqs {
		accesses += len(r.Accesses)
	}
	if accesses == 0 {
		t.Fatal("the trace has no accesses")
	}
	if got, want := s.Ledger.Count(), uint64(4*accesses); got != want {
		t.Fatalf("ledger count = %d, want one record per access of four simulations (%d)", got, want)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := shared.Run("fig99"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestIDsAllRunnable(t *testing.T) {
	for _, id := range IDs() {
		if _, err := shared.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := runExp(t, "fig4")
	if len(tab.Rows) == 0 || len(tab.Rows) > 50 {
		t.Fatalf("rows = %d, want 1..50 (the paper's window)", len(tab.Rows))
	}
	// Low containment: few rows flagged reused.
	reused := 0
	for _, row := range tab.Rows {
		if row[3] == "true" {
			reused++
		}
	}
	if reused > len(tab.Rows)/4 {
		t.Fatalf("%d of %d identity queries reused an id; want sparse", reused, len(tab.Rows))
	}
}

func TestFig5and6Shape(t *testing.T) {
	for _, id := range []string{"fig5", "fig6"} {
		tab := runExp(t, id)
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		// Rows are sorted by reference count, and the top item shows a
		// long-lasting band (span a large part of the trace).
		top := cellFloat(t, tab, 0, "references")
		span := cellFloat(t, tab, 0, "span")
		if top <= 1 {
			t.Fatalf("%s: top item has %v references", id, top)
		}
		if span <= 0 {
			t.Fatalf("%s: top item has no reuse span", id)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tab := runExp(t, "fig7")
	last := len(tab.Rows) - 1
	rp := cellFloat(t, tab, last, "Rate-Profile(GB)")
	gds := cellFloat(t, tab, last, "GDS(GB)")
	static := cellFloat(t, tab, last, "Static(GB)")
	noCache := cellFloat(t, tab, last, "No-Cache(GB)")
	// Paper shape: bypass-yield ≈ static, well below GDS and no-cache.
	if rp > 1.5*static {
		t.Fatalf("Rate-Profile %v not ≈ static %v", rp, static)
	}
	if gds < 2*rp {
		t.Fatalf("GDS %v should be well above Rate-Profile %v", gds, rp)
	}
	if noCache < 4*rp {
		t.Fatalf("no-cache %v should dwarf Rate-Profile %v", noCache, rp)
	}
	// Curves are cumulative: nondecreasing.
	for _, col := range []string{"Rate-Profile(GB)", "GDS(GB)", "No-Cache(GB)"} {
		prev := -1.0
		for i := range tab.Rows {
			v := cellFloat(t, tab, i, col)
			if v < prev {
				t.Fatalf("%s decreases at row %d", col, i)
			}
			prev = v
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tab := runExp(t, "fig8")
	last := len(tab.Rows) - 1
	rp := cellFloat(t, tab, last, "Rate-Profile(GB)")
	gds := cellFloat(t, tab, last, "GDS(GB)")
	static := cellFloat(t, tab, last, "Static(GB)")
	noCache := cellFloat(t, tab, last, "No-Cache(GB)")
	if rp > 1.5*static {
		t.Fatalf("Rate-Profile %v not ≈ static %v", rp, static)
	}
	if gds <= rp {
		t.Fatalf("GDS %v should exceed Rate-Profile %v", gds, rp)
	}
	if noCache < 5*rp {
		t.Fatalf("no-cache %v should dwarf Rate-Profile %v", noCache, rp)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := runExp(t, "fig9")
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 cache sizes", len(tab.Rows))
	}
	// Bypass caches become effective only past the hot-set size: the
	// cost at 10% is many times the cost at 40%.
	rp10 := cellFloat(t, tab, 0, "Rate-Profile(GB)")
	rp40 := cellFloat(t, tab, 3, "Rate-Profile(GB)")
	if rp10 < 3*rp40 {
		t.Fatalf("Rate-Profile at 10%% (%v) should be ≫ at 40%% (%v)", rp10, rp40)
	}
	// GDS stays high through the mid-range.
	gds40 := cellFloat(t, tab, 3, "GDS(GB)")
	if gds40 < 2*rp40 {
		t.Fatalf("GDS at 40%% (%v) should be well above Rate-Profile (%v)", gds40, rp40)
	}
	// Static is a lower envelope for Rate-Profile at every size.
	for i := range tab.Rows {
		st := cellFloat(t, tab, i, "Static(GB)")
		rp := cellFloat(t, tab, i, "Rate-Profile(GB)")
		if st > rp*1.05+0.2 {
			t.Fatalf("row %d: static %v above Rate-Profile %v", i, st, rp)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab := runExp(t, "fig10")
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 cache sizes", len(tab.Rows))
	}
	// Cost declines (weakly) with cache size for Rate-Profile between
	// the extremes.
	rp10 := cellFloat(t, tab, 0, "Rate-Profile(GB)")
	rp100 := cellFloat(t, tab, 9, "Rate-Profile(GB)")
	if rp100 > rp10/3 {
		t.Fatalf("Rate-Profile at 100%% (%v) should be ≪ at 10%% (%v)", rp100, rp10)
	}
	// At tiny caches the randomized algorithm is not better than the
	// workload-driven one by much; mostly they are all bad.
	se10 := cellFloat(t, tab, 0, "SpaceEffBY(GB)")
	if se10 < rp100 {
		t.Fatalf("SpaceEffBY at 10%% (%v) suspiciously low", se10)
	}
}

func TestTab1Shape(t *testing.T) {
	tab := runExp(t, "tab1")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 releases × 3 algorithms)", len(tab.Rows))
	}
	for i := range tab.Rows {
		bypass := cellFloat(t, tab, i, "bypass(GB)")
		fetch := cellFloat(t, tab, i, "fetch(GB)")
		total := cellFloat(t, tab, i, "total(GB)")
		if v := bypass + fetch; v < total-0.02 || v > total+0.02 {
			t.Fatalf("row %d: bypass %v + fetch %v != total %v", i, bypass, fetch, total)
		}
		seq := cellFloat(t, tab, i, "seq-cost(GB)")
		if total > seq/3 {
			t.Fatalf("row %d: total %v not well below sequence cost %v", i, total, seq)
		}
	}
}

func TestTab2Shape(t *testing.T) {
	tab := runExp(t, "tab2")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for i := range tab.Rows {
		total := cellFloat(t, tab, i, "total(GB)")
		seq := cellFloat(t, tab, i, "seq-cost(GB)")
		if total > seq/2 {
			t.Fatalf("row %d: total %v not below half the sequence cost %v", i, total, seq)
		}
	}
}

func TestTableWriteText(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}},
	}
	tab.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "long-header", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, err := NewSuite(60).Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(60).Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("non-deterministic cell [%d][%d]: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestExtensionIDsAllRunnable(t *testing.T) {
	for _, id := range ExtensionIDs() {
		if _, err := shared.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestXSemShape(t *testing.T) {
	tab, err := shared.Run("xsem")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 cache sizes", len(tab.Rows))
	}
	// At every cache size the semantic cache must trail Rate-Profile
	// except possibly at the smallest size, and always at 40%+.
	for i := 1; i < len(tab.Rows); i++ {
		sem := cellFloat(t, tab, i, "sem-WAN(GB)")
		rp := cellFloat(t, tab, i, "rate-profile-WAN(GB)")
		if sem < 2*rp {
			t.Fatalf("row %d: semantic cache %v not well above rate-profile %v", i, sem, rp)
		}
	}
}

func TestXNetShape(t *testing.T) {
	tab, err := shared.Run("xnet")
	if err != nil {
		t.Fatal(err)
	}
	// No-cache must be the worst row by far.
	var noCache, best float64
	best = 1e18
	for i := range tab.Rows {
		v := cellFloat(t, tab, i, "WAN-cost(GB)")
		if tab.Rows[i][0] == "no-cache" {
			noCache = v
		} else if v < best {
			best = v
		}
	}
	if noCache < 3*best {
		t.Fatalf("no-cache %v should dwarf the best policy %v", noCache, best)
	}
}

func TestXAvailShape(t *testing.T) {
	tab, err := shared.Run("xavail")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 outage levels × 2 policies", len(tab.Rows))
	}
	// Rows alternate rate-profile / no-cache per outage level.
	for i := 0; i < len(tab.Rows); i += 2 {
		outage := tab.Rows[i][0]
		rp := cellFloat(t, tab, i, "availability")
		nc := cellFloat(t, tab, i+1, "availability")
		if outage == "0" {
			if rp != 1 || nc != 1 {
				t.Fatalf("availability at 0%% outage = %v/%v, want 1/1", rp, nc)
			}
			continue
		}
		// The cache masks part of every outage: strictly higher
		// availability and some stale-served bytes.
		if rp <= nc {
			t.Fatalf("outage %s%%: rate-profile availability %v not above no-cache %v", outage, rp, nc)
		}
		if cellFloat(t, tab, i, "stale-served(GB)") <= 0 {
			t.Fatalf("outage %s%%: no stale bytes served from cache", outage)
		}
		if cellFloat(t, tab, i+1, "stale-served(GB)") != 0 {
			t.Fatalf("outage %s%%: no-cache served stale bytes", outage)
		}
	}
}

func TestXCompRatiosBounded(t *testing.T) {
	tab, err := shared.Run("xcomp")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		max := cellFloat(t, tab, i, "max-ratio")
		if max <= 0 || max > 40 {
			t.Fatalf("row %d: max ratio %v outside sane competitive band", i, max)
		}
	}
}

// TestXCompOneRowPerPolicy: each trace family has one row for each
// policy xcomp runs, so OnlineBY over Landlord and over size-class
// marking, whose bounds (4α+2) differ with α, are never merged.
func TestXCompOneRowPerPolicy(t *testing.T) {
	tab, err := shared.Run("xcomp")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	var families []string
	for _, r := range tab.Rows {
		if rows[r[0]] == nil {
			families = append(families, r[0])
		}
		rows[r[0]] = append(rows[r[0]], r[1])
	}
	if len(families) != 3 {
		t.Fatalf("families %q, want 3", families)
	}
	for _, f := range families {
		if got, want := strings.Join(rows[f], " "), "online-by online-by-marking space-eff-by"; got != want {
			t.Errorf("%s: rows %s, want %s", f, got, want)
		}
	}
}

func TestXHierShape(t *testing.T) {
	tab, err := shared.Run("xhier")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 configurations", len(tab.Rows))
	}
	// Costs must strictly improve down the configurations: no caching
	// → mediator only → +client 10% → +client 20%.
	prev := 1e18
	for i := range tab.Rows {
		v := cellFloat(t, tab, i, "total-cost(GB)")
		if v >= prev {
			t.Fatalf("row %d (%s): cost %v not below previous %v", i, tab.Rows[i][0], v, prev)
		}
		prev = v
	}
	// The client tier serves hits once present.
	if cellFloat(t, tab, 2, "client-hits") <= 0 {
		t.Fatal("client tier should serve hits")
	}
}

func TestXViewShape(t *testing.T) {
	tab, err := shared.Run("xview")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 cache sizes × 3 granularities)", len(tab.Rows))
	}
	// Columns dominate at every cache size (the paper's implicit
	// conclusion from evaluating columns most favourably).
	byKey := map[string]float64{}
	for i := range tab.Rows {
		byKey[tab.Rows[i][0]+"/"+tab.Rows[i][1]] = cellFloat(t, tab, i, "WAN(GB)")
	}
	for _, pct := range []string{"10", "20", "40"} {
		if byKey[pct+"/columns"] > byKey[pct+"/tables"] {
			t.Fatalf("at %s%%: columns %v should beat tables %v",
				pct, byKey[pct+"/columns"], byKey[pct+"/tables"])
		}
	}
	// Mid-range: views at least match tables.
	if byKey["20/views"] > byKey["20/tables"]*1.02 {
		t.Fatalf("at 20%%: views %v should not trail tables %v", byKey["20/views"], byKey["20/tables"])
	}
}

func TestXScaleShape(t *testing.T) {
	tab, err := shared.Run("xscale")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Bypass-yield never exceeds the sequence cost (graceful
	// degradation); in-line GDS eventually does (caching everything
	// is worse than caching nothing once the cache is overwhelmed).
	last := len(tab.Rows) - 1
	seq := cellFloat(t, tab, last, "seq-cost(GB)")
	rp := cellFloat(t, tab, last, "rate-profile(GB)")
	gds := cellFloat(t, tab, last, "gds(GB)")
	if rp > seq {
		t.Fatalf("rate-profile %v exceeds sequence cost %v at max scale", rp, seq)
	}
	if gds < seq {
		t.Fatalf("GDS %v should exceed sequence cost %v when overwhelmed", gds, seq)
	}
	// Savings shrink monotonically as the federation grows.
	prev := 1e18
	for i := range tab.Rows {
		r := cellFloat(t, tab, i, "rate-profile(GB)") / cellFloat(t, tab, i, "seq-cost(GB)")
		if 1/r > prev*1.05 {
			t.Fatalf("row %d: savings factor grew with federation size", i)
		}
		prev = 1 / r
	}
}

func TestTableWriteMarkdown(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	}
	tab.AddNote("hello")
	var buf bytes.Buffer
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### x — demo", "| a | b |", "|---|---|", "| 1 | 2 |", "- hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}
