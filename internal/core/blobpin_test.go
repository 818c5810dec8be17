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
// credits, written in the same order. space-eff-by's is that build's
// blob (space-eff-by-v1.blob) at version 2, with the 3 000 draws its
// stream took written after it.
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

// TestSpaceEffBYVersion1Restores: a blob written before SpaceEffBY's
// snapshot carried its stream position restores the cache and leaves
// the stream where it is, so a fresh policy re-encodes it at version 2
// with 0 draws.
func TestSpaceEffBYVersion1Restores(t *testing.T) {
	v1 := readPinnedBlob(t, "space-eff-by-v1")
	pol, err := NewPolicyByName("space-eff-by", 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	ss := pol.(StateSnapshotter)
	if err := ss.RestoreState(v1); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{spaceStateVersion}, v1[1:]...), 0)
	if got := ss.SnapshotState(); !bytes.Equal(got, want) {
		t.Errorf("version-1 blob re-encodes to\n%x\nwant\n%x", got, want)
	}
}

// TestSpaceEffBYRefusesAStreamPastTheSnapshot: a receiver whose source
// has drawn more than the snapshot's count cannot take its stream back
// to the snapshot's draw, so the blob is refused and the receiver left
// as it was.
func TestSpaceEffBYRefusesAStreamPastTheSnapshot(t *testing.T) {
	pol := pinnedBlobPolicy(t, "space-eff-by")
	pol.Access(3001, testObj("a", 100), 50)
	ss := pol.(StateSnapshotter)
	before := ss.SnapshotState()
	if err := ss.RestoreState(readPinnedBlob(t, "space-eff-by")); err == nil {
		t.Fatal("a receiver 3 001 draws in restored a blob at draw 3 000")
	}
	if after := ss.SnapshotState(); !bytes.Equal(after, before) {
		t.Fatal("a refused blob changed the receiver")
	}
}
