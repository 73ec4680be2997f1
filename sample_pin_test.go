package reservoir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestClusterSampleDigestsPinned pins the sha256 of the final collected
// sample for a matrix of Cluster configurations: weighted and uniform,
// the three selection strategies, fixed and variable size, and the
// sharded scan with and without Pipeline. Fixed-size selection is exact,
// so how a selection finds its pivot must not move any of these digests;
// variable-size selection keeps its sampling stream, so neither may it.
// Ten rounds of 400 items per PE at k = 200 run sampling selections in
// the first rounds (hundreds of insertions each) and selections close
// to the top of the union later on.
func TestClusterSampleDigestsPinned(t *testing.T) {
	cases := []struct {
		name string
		p    int
		cfg  Config
		sha  string
	}{
		{"weighted-ours", 4, Config{K: 200, Weighted: true, Seed: 1}, "5c2c9b1cd9a1cf721103548a48e0624db3e4d748d4750381e1b0960dc0c89187"},
		{"weighted-ours-8", 4, Config{K: 200, Weighted: true, Strategy: SelMultiPivot, Pivots: 8, Seed: 2}, "edb566839e1ba349a317092b36b87acb71c818013e1f0ef2f6a8a3e3f2dab0c2"},
		{"weighted-randomdist", 4, Config{K: 200, Weighted: true, Strategy: SelRandomDist, Seed: 3}, "8d13990ad5a2cb46826713df35a2510146a7d34bc5f153210eac21a2faa19ca7"},
		{"uniform-ours", 5, Config{K: 200, Seed: 4}, "d5aa658ff6ecabbb65df3c1e9a2690b7731e3fe18c211603f17bac70d6b90652"},
		{"uniform-ours-8", 4, Config{K: 200, Strategy: SelMultiPivot, Pivots: 8, Seed: 5}, "80fa30db33e0e6b45e54001400a92db0b83084eecadca568f222cd563c139b68"},
		{"uniform-randomdist", 3, Config{K: 200, Strategy: SelRandomDist, Seed: 6}, "b47070ed3cdb07fc2aa3e287aac31731ce80529b72e19f2143d55e5406aad099"},
		{"weighted-small-k", 5, Config{K: 32, Weighted: true, Seed: 7}, "b7e326bb9de3a5dcef8c9f4b16d812b6997c9acb188b9304938e49940cf3d88a"},
		{"weighted-variable", 4, Config{KMin: 150, KMax: 300, Weighted: true, Seed: 8}, "fc9e030d2d8ddbf6753742e77a3464e9241aa31222b9795aa36627e7a913145b"},
		{"uniform-variable-8", 4, Config{KMin: 150, KMax: 300, Strategy: SelMultiPivot, Pivots: 8, Seed: 9}, "89fea89e527048f1b70dfcdec69533fe4cbe88f8063529f5c1f318de76f1632c"},
		{"weighted-shards", 4, Config{K: 200, Weighted: true, Shards: 4, Seed: 10}, "5ab238bf7426f48e0ca94b0c66323435fcdce459052a1c3d317bb15370ddbd99"},
		{"weighted-shards-pipeline", 4, Config{K: 200, Weighted: true, Shards: 4, Pipeline: true, Seed: 11}, "f4986b26cd1da645d13bfc7058afa5892e335c0141dd467e6fdc02f005b3f889"},
		{"uniform-shards-pipeline-8", 4, Config{K: 200, Strategy: SelMultiPivot, Pivots: 8, Shards: 4, Pipeline: true, Seed: 12}, "d5fe95b62d5d374bdbcde7fe8d0cf7d1e29874da3f141e0053155f792cf4275b"},
	}
	src := ParetoSource{Seed: 17, BatchLen: 400, Shape: 1.5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(tc.p, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 10; r++ {
				cl.ProcessRound(src)
			}
			h := sha256.New()
			var buf [16]byte
			for _, it := range cl.Sample() {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(it.W))
				binary.LittleEndian.PutUint64(buf[8:], it.ID)
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("sample sha256 = %s, want %s", got, tc.sha)
			}
		})
	}
}
