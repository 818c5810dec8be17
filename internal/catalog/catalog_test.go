package catalog

import "testing"

func TestTypeWidths(t *testing.T) {
	cases := []struct {
		typ  Type
		want int64
	}{{Int64, 8}, {Int32, 4}, {Int16, 2}, {Float64, 8}, {Float32, 4}}
	for _, tc := range cases {
		if got := tc.typ.Width(); got != tc.want {
			t.Fatalf("%v.Width() = %d, want %d", tc.typ, got, tc.want)
		}
	}
	if Type(200).Width() != 0 {
		t.Fatal("invalid type must have zero width")
	}
}

func TestTypeStrings(t *testing.T) {
	if Int64.String() != "bigint" || Float32.String() != "real" {
		t.Fatal("type names wrong")
	}
}

func TestTableLookupCaseInsensitive(t *testing.T) {
	s := EDR()
	if s.Table("PhotoObj") == nil {
		t.Fatal("case-insensitive table lookup failed")
	}
	if s.Table("nope") != nil {
		t.Fatal("lookup of absent table should be nil")
	}
	po := s.Table("photoobj")
	if po.Column("ModelMag_G") == nil {
		t.Fatal("case-insensitive column lookup failed")
	}
	if po.Column("nope") != nil {
		t.Fatal("lookup of absent column should be nil")
	}
}

func TestRowWidth(t *testing.T) {
	tab := Table{Name: "t", Columns: []Column{
		{Name: "a", Type: Int64},
		{Name: "b", Type: Float32},
		{Name: "c", Type: Int16},
	}, Rows: 10, Site: "s"}
	if got := tab.RowWidth(); got != 14 {
		t.Fatalf("RowWidth = %d, want 14", got)
	}
	if got := tab.Bytes(); got != 140 {
		t.Fatalf("Bytes = %d, want 140", got)
	}
}

func TestReleasesValidate(t *testing.T) {
	for _, s := range []*Schema{EDR(), DR1()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestReleaseSizes(t *testing.T) {
	// The paper reports its experimental data at about 700 MB; EDR
	// should land near that and DR1 roughly 2.3× bigger.
	edr := EDR().TotalBytes()
	dr1 := DR1().TotalBytes()
	if edr < 600<<20 || edr > 850<<20 {
		t.Fatalf("EDR size = %d MB, want ≈ 700 MB", edr>>20)
	}
	if dr1 < int64(2)*edr || dr1 > 3*edr {
		t.Fatalf("DR1 size = %d MB, want ≈ 2-3× EDR (%d MB)", dr1>>20, edr>>20)
	}
}

func TestHotSetFraction(t *testing.T) {
	// The hot working set (photoobj + specobj + field) must be 20–35%
	// of the release: the paper finds bypass caches become effective
	// at 20–30% of the database, which requires exactly this split
	// between hot science tables and cold survey metadata.
	for _, s := range []*Schema{EDR(), DR1()} {
		var hot int64
		for _, n := range []string{"photoobj", "specobj", "field"} {
			hot += s.Table(n).Bytes()
		}
		frac := float64(hot) / float64(s.TotalBytes())
		if frac < 0.20 || frac > 0.35 {
			t.Fatalf("%s: hot set is %.1f%% of the release, want 20-35%%", s.Name, frac*100)
		}
	}
}

func TestPhotoObjIsLargestHotTable(t *testing.T) {
	s := EDR()
	if s.Table("photoobj").Bytes() <= s.Table("specobj").Bytes() {
		t.Fatal("photoobj should dwarf specobj")
	}
}

func TestSpecObjReferencesPhotoObj(t *testing.T) {
	s := EDR()
	po := s.Table("photoobj")
	so := s.Table("specobj")
	c := so.Column("objid")
	if c == nil {
		t.Fatal("specobj.objid missing")
	}
	if c.Max != float64(po.Rows) {
		t.Fatalf("specobj.objid range max = %v, want photoobj rows %d", c.Max, po.Rows)
	}
	if po.Rows <= so.Rows*5 {
		t.Fatal("photoobj should have far more rows than specobj")
	}
}

func TestSitesAssigned(t *testing.T) {
	s := EDR()
	sites := make(map[string]int)
	for i := range s.Tables {
		sites[s.Tables[i].Site]++
	}
	if len(sites) < 3 {
		t.Fatalf("tables spread over %d sites, want ≥ 3 (federation)", len(sites))
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mk := func(mut func(*Schema)) *Schema {
		s := &Schema{Name: "x", Tables: []Table{{
			Name: "t", Rows: 1, Site: "s",
			Columns: []Column{{Name: "a", Type: Int64}},
		}}}
		mut(s)
		return s
	}
	cases := []struct {
		name string
		mut  func(*Schema)
	}{
		{"empty schema name", func(s *Schema) { s.Name = "" }},
		{"empty table name", func(s *Schema) { s.Tables[0].Name = "" }},
		{"zero rows", func(s *Schema) { s.Tables[0].Rows = 0 }},
		{"no site", func(s *Schema) { s.Tables[0].Site = "" }},
		{"no columns", func(s *Schema) { s.Tables[0].Columns = nil }},
		{"dup table", func(s *Schema) { s.Tables = append(s.Tables, s.Tables[0]) }},
		{"dup column", func(s *Schema) {
			s.Tables[0].Columns = append(s.Tables[0].Columns, s.Tables[0].Columns[0])
		}},
		{"bad range", func(s *Schema) { s.Tables[0].Columns[0].Min = 5; s.Tables[0].Columns[0].Max = 1 }},
		{"two keys", func(s *Schema) {
			s.Tables[0].Columns = append(s.Tables[0].Columns,
				Column{Name: "k1", Type: Int64, Key: true},
				Column{Name: "k2", Type: Int64, Key: true})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mk(tc.mut).Validate(); err == nil {
				t.Fatal("Validate should have failed")
			}
		})
	}
	if err := mk(func(*Schema) {}).Validate(); err != nil {
		t.Fatalf("baseline schema should validate: %v", err)
	}
}

func TestSiteSchema(t *testing.T) {
	s := EDR()
	sub := SiteSchema(s, SiteSpec)
	if sub.Name != s.Name {
		t.Fatalf("subset name = %q, want %q", sub.Name, s.Name)
	}
	if len(sub.Tables) == 0 {
		t.Fatal("spec site owns tables")
	}
	for i := range sub.Tables {
		if sub.Tables[i].Site != SiteSpec {
			t.Fatalf("foreign table %s in subset", sub.Tables[i].Name)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if SiteSchema(s, "nowhere").Tables != nil {
		t.Fatal("unknown site should yield empty subset")
	}
}

func TestSites(t *testing.T) {
	got := Sites(EDR())
	want := []string{SiteMeta, SitePhoto, SiteSpec}
	if len(got) != 3 {
		t.Fatalf("sites = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sites = %v, want %v (sorted)", got, want)
		}
	}
}
