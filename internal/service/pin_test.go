package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"

	"reservoir/internal/store"
)

// runKindPins are the digests TestServiceRunKindsPinned checks, one per
// persistedRunKinds row: the newest slot's round, tag and blob sha256, and
// the sha256 of the GET stats and GET sample bodies.
var runKindPins = map[string]struct {
	round        uint64
	tag          byte
	blob, st, sm string
}{
	"cluster":            {8, 1, "8b96c643df6e97908b81aadf1d043fbb3479b83f89c806ddbe56be19278fe47d", "e8f11969ca92534aa51e61231adf55c21b260b745042485965470bc0c32ac77c", "fdf70d42b4fc8264870e004117aacad1fe5a1282460504c109c25cd4f50c26b5"},
	"uniform-cluster":    {8, 1, "2b4e52ce9620df3d55ab552a8aca7372274a5f539ac42cf8bc1f8c9b912bbdf5", "eaadf75285cd80e04cebc4c589dc273b5758dc8a067e84a3ff7d7e4f065dabe8", "1ae5d7de4dd027db698fde8e81c4a4747a8a56d773d6139118884981ab089e54"},
	"variable":           {8, 1, "998be4d51f31934f80b768a4287eee3546e94e8913065ace70d63bf9e43b52ed", "050253ea1571e6650d7cb066e4422b7b4dccd7301d5b0a8bc05dead50072d2d0", "5e5d29e578e32f67d37f8b462868b45efe43d80b37e1e68dbb288ccee5fe9cc9"},
	"random-dist":        {8, 1, "e009b0ac6d99192068ea01f2b5e3cf632067eab72b5efe2ef2c006626e032356", "e41df08a0401a21b2c2dd6e0a164a11bda3e3558a91d003f7b36d17e44f6b74b", "62e67eb8a6eed098e5e11724a7685c6433ab0434213309b6f8165427a8160c38"},
	"pipelined":          {8, 1, "79a6e811cdb35eb7f5df18bdd6736556ccf5e1591c7c2aff65d9f4bbed5c2364", "55e79652cc9b0c7a99c6f9a40d4c0e14c57a23bd55e46c20406ee3a10c954f87", "a16df77b2dbe06d420afa4408edd0bc8b97a9b93bb53751fae6d02e7f5f0d487"},
	"gather":             {8, 1, "0cd66b48eb1941539e6e0f2e8300275a338b2cce8990273a73b28354c894e172", "94ef0ee043338f0a43077790d6d8d25ead31ba1c953870179097076f71d64531", "b9f4b03ceec0c7cf6b6dffdc9fd34c88f7e217db45f4391c861f9c0243c8363f"},
	"sequential":         {8, 2, "4f7d56d6823928517ff45aa9331595608251b33e6928628aa575901f6925de97", "4898411ae409296962f0af8cbf7c81c96b1118d2785ad2210d5024a362425765", "2d81de9b322ccc19a83d7eda83c1eee075c2e24734e217407b6f1bde087dd573"},
	"sequential-uniform": {8, 3, "0b0dbedd12bb963f86a2c60213c853d7837e74b506057094aba2987e3955b680", "fbcc3388d08f8876d1887efa11ea7be63dc87007b0e3f36ffd04e9fecc59800d", "b8e356c15f63b107a566e66b99a543ae2e802e6914513c96e4ed484803960fd2"},
}

// TestServiceRunKindsPinned drives the recovery schedule into a persisted
// server for every run kind, closes it, and pins the newest boundary slot
// and the stats and sample response bodies byte for byte, so a change to
// how the service drives, reports or persists a sampler cannot move any
// of them unseen.
func TestServiceRunKindsPinned(t *testing.T) {
	dir := t.TempDir()
	ts, svc, st := newPersistentServer(t, dir)
	type got struct {
		id     string
		st, sm string
	}
	runs := make([]got, len(persistedRunKinds))
	for i, k := range persistedRunKinds {
		runs[i].id = createRun(t, ts, k.cfg).ID
		driveSchedule(t, ts, runs[i].id, k.p, 0)
	}
	digest := func(path string) string {
		code, raw := doJSON(t, "GET", ts.URL+path, "", nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, raw)
		}
		sum := sha256.Sum256([]byte(raw))
		return hex.EncodeToString(sum[:])
	}
	for i := range runs {
		runs[i].st = digest("/v1/runs/" + runs[i].id + "/stats")
		runs[i].sm = digest("/v1/runs/" + runs[i].id + "/sample")
	}
	svc.Close()
	st.Close()
	ts.Close()

	st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, k := range persistedRunKinds {
		_, slots, err := st.OpenSlots(runs[i].id)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := slots.Latest()
		slots.Close()
		if err != nil || snap == nil {
			t.Fatalf("%s: newest slot: %v", k.name, err)
		}
		sum := sha256.Sum256(snap.Blob)
		blob := hex.EncodeToString(sum[:])
		want := runKindPins[k.name]
		if snap.Round != want.round || snap.Kind != want.tag || blob != want.blob ||
			runs[i].st != want.st || runs[i].sm != want.sm {
			t.Errorf("%s: got {%d, %d, %q, %q, %q}", k.name,
				snap.Round, snap.Kind, blob, runs[i].st, runs[i].sm)
		}
	}
}
