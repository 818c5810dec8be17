package catalog

import "fmt"

// SDSS-like data releases. The paper's evaluation uses traces from two
// releases of the largest SkyQuery federating node: EDR (Early Data
// Release) and DR1 (Data Release 1). The real archives are not
// redistributable, so these schemas reproduce the structure the paper
// relies on — a photometric giant (photoobj), a much smaller
// spectroscopic table (specobj), and several auxiliary relations —
// with logical sizes around the ~700 MB figure the paper reports for
// its experimental data, DR1 scaled up roughly 2.3×.
//
// Column value ranges follow the astronomy: ra ∈ [0,360), dec ∈
// [-90,90], magnitudes ∈ [12,28], redshift z ∈ [0,6].

const (
	// SitePhoto serves the photometric tables.
	SitePhoto = "photo.sdss.org"
	// SiteSpec serves the spectroscopic tables.
	SiteSpec = "spec.sdss.org"
	// SiteMeta serves survey metadata (fields, frames, plates).
	SiteMeta = "meta.sdss.org"
)

func key(name string, max float64) Column {
	return Column{Name: name, Type: Int64, Min: 0, Max: max, Key: true}
}

func i64(name string, min, max float64) Column {
	return Column{Name: name, Type: Int64, Min: min, Max: max}
}

func i32(name string, min, max float64) Column {
	return Column{Name: name, Type: Int32, Min: min, Max: max}
}

func i16(name string, min, max float64) Column {
	return Column{Name: name, Type: Int16, Min: min, Max: max}
}

func f64(name string, min, max float64) Column {
	return Column{Name: name, Type: Float64, Min: min, Max: max}
}

func f32(name string, min, max float64) Column {
	return Column{Name: name, Type: Float32, Min: min, Max: max}
}

// fiveBand appends the SDSS u,g,r,i,z band variants of a column.
func fiveBand(cols []Column, prefix string, min, max float64) []Column {
	for _, band := range []string{"u", "g", "r", "i", "z"} {
		cols = append(cols, f32(prefix+"_"+band, min, max))
	}
	return cols
}

// maskColumns builds the imaging-mask table: bulk survey metadata
// that science queries rarely touch.
func maskColumns(rows int64) []Column {
	return []Column{
		key("maskid", float64(rows)),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		f32("radius", 0, 2),
		i16("type", 0, 6),
		i32("area", 0, 1<<20),
	}
}

// chunkColumns builds the survey-chunk table: load-tracking metadata,
// again rarely queried.
func chunkColumns(rows int64) []Column {
	return []Column{
		key("chunkid", float64(rows)),
		i32("stripe", 0, 90),
		f64("ramin", 0, 360),
		f64("ramax", 0, 360),
		i32("seglist", 0, 1<<16),
		i64("exportid", 0, 1<<40),
		f32("lambda", -90, 90),
	}
}

// photoObjColumns builds the photometric table's attribute list
// (44 columns, 196 bytes per row).
func photoObjColumns(rows int64) []Column {
	cols := []Column{
		key("objid", float64(rows)),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		i64("htmid", 0, 1<<44),
		i32("run", 0, 8000),
		i32("rerun", 0, 50),
		i32("camcol", 1, 6),
		i32("field", 0, 1000),
		i16("type", 3, 6),
		i16("mode", 0, 3),
		i64("flags", 0, 1<<60),
		f32("rowc", 0, 1500),
		f32("colc", 0, 2000),
		f32("petrorad_r", 0, 60),
		f32("petror50_r", 0, 30),
		i32("status", 0, 1<<20),
	}
	cols = fiveBand(cols, "psfmag", 12, 28)
	cols = fiveBand(cols, "psfmagerr", 0, 2)
	cols = fiveBand(cols, "modelmag", 12, 28)
	cols = fiveBand(cols, "modelmagerr", 0, 2)
	cols = fiveBand(cols, "petromag", 12, 28)
	cols = append(cols, f32("extinction_r", 0, 2), f32("extinction_g", 0, 2), f32("dered_r", 12, 28))
	return cols
}

// specObjColumns builds the spectroscopic table's attribute list.
func specObjColumns(rows, photoRows int64) []Column {
	return []Column{
		key("specobjid", float64(rows)),
		// objid references photoobj: every spectrum has a photometric
		// counterpart, which makes photoobj ⋈ specobj a key join.
		i64("objid", 0, float64(photoRows)),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		f32("z", 0, 6),
		f32("zerr", 0, 0.1),
		f32("zconf", 0, 1),
		i16("specclass", 0, 6),
		i16("zstatus", 0, 12),
		i32("plate", 0, 3000),
		i32("mjd", 51000, 54000),
		i32("fiberid", 1, 640),
		f32("veldisp", 0, 500),
		f32("sn_0", 0, 100),
		f32("sn_1", 0, 100),
		f32("eclass", -1, 1),
		f32("ecoeff_0", -100, 100),
		f32("ecoeff_1", -100, 100),
	}
}

// neighborsColumns builds the pair-matching table.
func neighborsColumns(photoRows int64) []Column {
	return []Column{
		i64("objid", 0, float64(photoRows)),
		i64("neighborobjid", 0, float64(photoRows)),
		f32("distance", 0, 0.05),
		i16("neighbortype", 0, 9),
		i16("neighbormode", 0, 3),
	}
}

// fieldColumns builds the imaging-field metadata table.
func fieldColumns(rows int64) []Column {
	cols := []Column{
		key("fieldid", float64(rows)),
		i32("run", 0, 8000),
		i32("camcol", 1, 6),
		i32("field", 0, 1000),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		i32("nobjects", 0, 3000),
		i32("nstars", 0, 2000),
		i32("ngalaxy", 0, 2000),
		f32("quality", 0, 5),
	}
	cols = fiveBand(cols, "sky", 18, 23)
	cols = fiveBand(cols, "skyerr", 0, 1)
	cols = fiveBand(cols, "airmass", 1, 2)
	return cols
}

// frameColumns builds the imaging-frame table. Frames carry the bulk
// astrometric calibration payload (in SDSS they also reference the
// JPEG mosaics), so rows are wide and the table is one of the big,
// cold objects of the release.
func frameColumns(rows int64) []Column {
	cols := []Column{
		key("frameid", float64(rows)),
		i32("fieldid", 0, 1<<20),
		i16("zoom", 0, 10),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		f32("a", -1, 1), f32("b", -1, 1), f32("c", -1, 1),
		f32("d", -1, 1), f32("e", -1, 1), f32("f", -1, 1),
		f32("mu", 0, 360),
		f32("nu", -90, 90),
	}
	// Per-band calibration vectors (astrom/photom coefficients).
	for _, band := range []string{"u", "g", "r", "i", "z"} {
		for i := 0; i < 12; i++ {
			cols = append(cols, f32(fmtCoeff(band, i), -1000, 1000))
		}
	}
	return cols
}

func fmtCoeff(band string, i int) string {
	return "cal_" + band + "_" + string(rune('a'+i))
}

// specLineColumns builds the emission/absorption line table.
func specLineColumns(rows, specRows int64) []Column {
	return []Column{
		key("speclineid", float64(rows)),
		i64("specobjid", 0, float64(specRows)),
		f32("wave", 3800, 9200),
		f32("waveerr", 0, 5),
		f32("sigma", 0, 100),
		f32("height", 0, 1000),
		f32("ew", -100, 100),
		f32("continuum", 0, 1000),
		i32("lineid", 0, 60),
	}
}

// plateColumns builds the spectroscopic plate table.
func plateColumns(rows int64) []Column {
	cols := []Column{
		key("plateid", float64(rows)),
		i32("plate", 0, 3000),
		i32("mjd", 51000, 54000),
		f64("ra", 0, 360),
		f64("dec", -90, 90),
		i32("nexposures", 1, 20),
		f32("seeing", 0.5, 3),
	}
	cols = fiveBand(cols, "platesn", 0, 100)
	return cols
}

// buildRelease assembles a release given the photometric row count;
// the auxiliary tables scale proportionally.
//
// The proportions matter to the paper's results: the hot working set
// (photoobj + specobj + field, the tables science queries hammer) is
// 25–30% of the release, while the remaining bytes sit in big, cold
// survey-metadata tables (frame, mask, chunk, neighbors, specline)
// that attract only scattered, low-yield queries. Bypass caches become
// effective once they can hold the hot set — the paper's "20% to 30%
// of the database" — and in-line caches are poisoned by the cold
// tables, which they must load whole for tiny results.
func buildRelease(name string, photoRows int64) *Schema {
	specRows := photoRows / 8
	neighborRows := photoRows * 5 / 2
	fieldRows := photoRows / 20
	frameRows := photoRows * 7 / 8
	lineRows := specRows * 6
	maskRows := photoRows * 7 / 2
	chunkRows := photoRows * 3 / 2
	plateRows := specRows / 90
	if plateRows < 100 {
		plateRows = 100
	}
	return &Schema{
		Name: name,
		Tables: []Table{
			{Name: "photoobj", Columns: photoObjColumns(photoRows), Rows: photoRows, Site: SitePhoto},
			{Name: "specobj", Columns: specObjColumns(specRows, photoRows), Rows: specRows, Site: SiteSpec},
			{Name: "neighbors", Columns: neighborsColumns(photoRows), Rows: neighborRows, Site: SitePhoto},
			{Name: "field", Columns: fieldColumns(fieldRows), Rows: fieldRows, Site: SiteMeta},
			{Name: "frame", Columns: frameColumns(frameRows), Rows: frameRows, Site: SiteMeta},
			{Name: "specline", Columns: specLineColumns(lineRows, specRows), Rows: lineRows, Site: SiteSpec},
			{Name: "platex", Columns: plateColumns(plateRows), Rows: plateRows, Site: SiteSpec},
			{Name: "mask", Columns: maskColumns(maskRows), Rows: maskRows, Site: SiteMeta},
			{Name: "chunk", Columns: chunkColumns(chunkRows), Rows: chunkRows, Site: SiteMeta},
		},
	}
}

// EDR returns the Early Data Release schema (~700 MB logical).
func EDR() *Schema { return buildRelease("edr", 880_000) }

// DR1 returns the Data Release 1 schema (~1.6 GB logical).
func DR1() *Schema { return buildRelease("dr1", 2_000_000) }

// Release returns the schema of the release named "edr" or "dr1".
func Release(name string) (*Schema, error) {
	switch name {
	case "edr":
		return EDR(), nil
	case "dr1":
		return DR1(), nil
	}
	return nil, fmt.Errorf("unknown release %q (have edr, dr1)", name)
}
