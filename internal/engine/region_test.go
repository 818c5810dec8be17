package engine

import (
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/sqlparse"
)

func TestIntervalContains(t *testing.T) {
	outer := Interval{0, 10}
	cases := []struct {
		in   Interval
		want bool
	}{
		{Interval{2, 8}, true},
		{Interval{0, 10}, true},
		{Interval{-1, 5}, false},
		{Interval{5, 11}, false},
	}
	for _, tc := range cases {
		if got := outer.Contains(tc.in); got != tc.want {
			t.Fatalf("Contains(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestConditionInterval(t *testing.T) {
	col := &catalog.Column{Name: "x", Type: catalog.Float64, Min: 0, Max: 100}
	cases := []struct {
		sql  string
		want Interval
	}{
		{"select x from t where x between 10 and 20", Interval{10, 20}},
		{"select x from t where x = 7", Interval{7, 7}},
		{"select x from t where x < 30", Interval{0, 30}},
		{"select x from t where x >= 60", Interval{60, 100}},
		{"select x from t where x <> 5", Interval{0, 100}},
	}
	for _, tc := range cases {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		got := ConditionInterval(stmt.Where[0], col)
		if got != tc.want {
			t.Fatalf("%s: interval = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

func TestRegionContains(t *testing.T) {
	outer := map[string]Interval{"x": {0, 50}}
	if !RegionContains(outer, map[string]Interval{"x": {10, 20}, "y": {0, 1}}) {
		t.Fatal("narrower region with extra constraints should be contained")
	}
	if RegionContains(outer, map[string]Interval{"x": {10, 60}}) {
		t.Fatal("escaping interval should not be contained")
	}
	if RegionContains(outer, map[string]Interval{"y": {0, 1}}) {
		t.Fatal("inner unconstrained on outer's column should not be contained")
	}
	if !RegionContains(nil, map[string]Interval{"x": {1, 2}}) {
		t.Fatal("empty outer region contains everything")
	}
}
