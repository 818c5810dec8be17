package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// pinnedBlobPolicy drives the named policy over the stream the blobs
// under testdata were taken after.
func pinnedBlobPolicy(t *testing.T, name string) Policy {
	t.Helper()
	pol, err := NewPolicyByName(name, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	objs := persistTestUniverse()
	driveTrace(t, pol, objMap(objs...), randomTrace(rand.New(rand.NewSource(13)), objs, 3000, 1.2))
	return pol
}

func readPinnedBlob(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name+".blob"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLandlordBlobsArePinned holds online-by and space-eff-by, whose
// blobs carry Landlord's, to the bytes a build with Landlord's own heap
// wrote after the same stream: the same decisions, evictions and
// credits, written in the same order.
func TestLandlordBlobsArePinned(t *testing.T) {
	for _, name := range []string{"online-by", "space-eff-by"} {
		want := readPinnedBlob(t, name)
		if got := pinnedBlobPolicy(t, name).(StateSnapshotter).SnapshotState(); !bytes.Equal(got, want) {
			t.Errorf("%s blob is\n%x\nwant\n%x", name, got, want)
		}
	}
}

// TestGreedyDualBlobsArePinned holds the gds blob to the format a
// build with a copy of GreedyDual-Size in each policy wrote: it decodes
// and encodes back to the same bytes.
func TestGreedyDualBlobsArePinned(t *testing.T) {
	for _, name := range []string{"gds"} {
		want := readPinnedBlob(t, name)
		pol, err := NewPolicyByName(name, 600, 5)
		if err != nil {
			t.Fatal(err)
		}
		ss := pol.(StateSnapshotter)
		if err := ss.RestoreState(want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ss.SnapshotState(); !bytes.Equal(got, want) {
			t.Errorf("%s blob re-encodes to\n%x\nwant\n%x", name, got, want)
		}
	}
}
