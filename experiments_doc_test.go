package bypassyield

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsFiguresInResults holds EXPERIMENTS.md's measured GB
// figures to the archived evaluation: each must be a number printed
// under results/, at the precision the document gives it, unless its
// line says it is derived (a sum, a ratio or a difference of printed
// figures).
//
// The measured figures are those of a paragraph opening with
// "**Measured:**" or "Measured (GB):" (and of the table that follows one
// ending in a colon), and the "measured" column of a table. In a
// "Measured (GB)" block every decimal number is a GB figure, the
// integers being cache sizes and counts; elsewhere a GB figure is a
// number followed by "GB".
func TestExperimentsFiguresInResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	printed := resultNumbers(t)
	decimal := regexp.MustCompile(`\d+\.\d+`)
	gb := regexp.MustCompile(`(\d[\d,]*(?:\.\d+)?) GB`)
	checked := 0
	check := func(line, fig string) {
		checked++
		if !strings.Contains(line, "derived") && !printedAt(printed, fig) {
			t.Errorf("EXPERIMENTS.md gives %s GB, which no figure under results/ rounds to:\n\t%s", fig, line)
		}
	}
	paras := strings.Split(string(doc), "\n\n")
	for i := 0; i < len(paras); i++ {
		p := strings.TrimSpace(paras[i])
		switch {
		case strings.HasPrefix(p, "Measured (GB):"), strings.HasPrefix(p, "**Measured:**"):
			lines := strings.Split(p, "\n")
			if strings.HasSuffix(p, ":") && i+1 < len(paras) {
				i++
				lines = strings.Split(strings.TrimSpace(paras[i]), "\n")
			}
			for _, line := range lines {
				if strings.HasPrefix(p, "Measured (GB):") {
					for _, fig := range decimal.FindAllString(line, -1) {
						check(line, fig)
					}
					continue
				}
				for _, m := range gb.FindAllStringSubmatch(line, -1) {
					check(line, m[1])
				}
			}
		case strings.HasPrefix(p, "|"):
			lines := strings.Split(p, "\n")
			col := -1
			for j, h := range strings.Split(lines[0], "|") {
				if strings.TrimSpace(h) == "measured" {
					col = j
				}
			}
			for _, row := range lines[1:] {
				if cells := strings.Split(row, "|"); col >= 0 && col < len(cells) {
					for _, m := range gb.FindAllStringSubmatch(cells[col], -1) {
						check(row, m[1])
					}
				}
			}
		}
	}
	if checked < 90 {
		t.Fatalf("checked %d figures in EXPERIMENTS.md: the scan has stopped finding them", checked)
	}
}

// TestDeviationThreeCountsTheFlips holds EXPERIMENTS.md's deviation 3 to
// results/fullscale.txt: the number of table/release combinations of
// Tables 1 and 2 on which OnlineBY costs more than SpaceEffBY, against
// the paper's order, is the number the deviation states.
func TestDeviationThreeCountsTheFlips(t *testing.T) {
	res, err := os.ReadFile(filepath.Join("results", "fullscale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	flipped, combos := 0, 0
	for _, block := range []string{"== tab1:", "== tab2:"} {
		_, rest, ok := strings.Cut(string(res), block)
		if !ok {
			t.Fatalf("results/fullscale.txt has no %q block", block)
		}
		rest, _, _ = strings.Cut(rest, "\n==")
		total := map[string]map[string]float64{} // release → algorithm → total GB
		for _, line := range strings.Split(rest, "\n") {
			f := strings.Fields(line)
			if len(f) != 9 || f[0] != "Set" {
				continue
			}
			v, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", block, line, err)
			}
			if total[f[2]] == nil {
				total[f[2]] = map[string]float64{}
			}
			total[f[2]][f[5]] = v
		}
		for release, algs := range total {
			online, okO := algs["OnlineBY"]
			spaceEff, okS := algs["SpaceEffBY"]
			if !okO || !okS {
				t.Fatalf("%s %s: no OnlineBY and SpaceEffBY rows in %v", block, release, algs)
			}
			combos++
			if online > spaceEff {
				flipped++
			}
		}
	}
	if combos != 4 {
		t.Fatalf("Tables 1 and 2 hold %d table/release combinations, want 4", combos)
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`SpaceEffBY/OnlineBY ordering\*\*\s+flips on (\w+) of four`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md's deviation 3 no longer says on how many of four combinations the order flips")
	}
	if stated := slices.Index([]string{"none", "one", "two", "three", "four"}, string(m[1])); stated != flipped {
		t.Fatalf("deviation 3 says the order flips on %s of four combinations; results/fullscale.txt flips %d", m[1], flipped)
	}
}

// resultNumbers is every number printed in results/*.txt.
func resultNumbers(t *testing.T) []float64 {
	files, err := filepath.Glob(filepath.Join("results", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no results/*.txt (%v)", err)
	}
	var nums []float64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range regexp.MustCompile(`\d+(?:\.\d+)?`).FindAllString(string(b), -1) {
			v, _ := strconv.ParseFloat(s, 64)
			nums = append(nums, v)
		}
	}
	return nums
}

// printedAt reports whether some printed number rounds to fig at fig's
// precision (either way at a tie).
func printedAt(printed []float64, fig string) bool {
	fig = strings.ReplaceAll(fig, ",", "")
	v, err := strconv.ParseFloat(fig, 64)
	if err != nil {
		return false
	}
	digits := 0
	if _, frac, ok := strings.Cut(fig, "."); ok {
		digits = len(frac)
	}
	half := 0.5*math.Pow(10, -float64(digits)) + 1e-9
	for _, p := range printed {
		if math.Abs(p-v) <= half {
			return true
		}
	}
	return false
}
