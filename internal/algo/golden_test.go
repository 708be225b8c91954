package algo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"eulerfd/internal/aidfd"
	"eulerfd/internal/datasets"
	"eulerfd/internal/depminer"
	"eulerfd/internal/fastfds"
	"eulerfd/internal/fdep"
	"eulerfd/internal/fdset"
	"eulerfd/internal/hyfd"
	"eulerfd/internal/kivinen"
	"eulerfd/internal/preprocess"
)

// coverDigest hashes a cover in canonical order: one line per FD, its
// LHS attributes then its RHS. Sixteen hex digits are plenty to tell
// two covers apart.
func coverDigest(s *fdset.Set) string {
	h := sha256.New()
	var line []byte
	for _, f := range s.Slice() {
		line = line[:0]
		f.LHS.ForEach(func(a int) bool {
			line = strconv.AppendInt(line, int64(a), 10)
			line = append(line, ' ')
			return true
		})
		line = append(line, "->"...)
		line = strconv.AppendInt(line, int64(f.RHS), 10)
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBaselineCoversGolden pins what the agree-set baselines output under
// their default options. AID-FD and Kivinen–Mannila are approximate, so no
// oracle judges them, and no oracle judges the work counters of HyFD,
// Fdep, Dep-Miner or FastFDs either: a change to how they collect
// evidence or admit it into the covers must leave each cover and every
// Stats counter byte-identical. A deliberate change to what one samples
// or admits re-records its lines and says why.
func TestBaselineCoversGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("discovers six registry relations with six algorithms")
	}
	cells := []struct {
		name                 string
		aidfd, kivinen, hyfd string
	}{
		{"chess",
			"c1a89584ba6ebe72 pairs=83604 agree=124 rounds=3 ncover=22 pcover=3",
			"45f91cb8ff023bf6 sample=785 pairs=785 agree=45 ncover=69 pcover=74",
			"9d756b2be1e8cd52 pairs=83604 agree=124 rounds=3 validations=6 invalidated=4 switchbacks=2 pcover=2"},
		{"adult",
			"3d973590fa9c27c9 pairs=1148768 agree=6503 rounds=22 ncover=725 pcover=850",
			"0b068e358c09b7cb sample=1340 pairs=1340 agree=433 ncover=532 pcover=1225",
			"638945dda2304c86 pairs=327975 agree=5123 rounds=6 validations=1128 invalidated=361 switchbacks=3 pcover=767"},
		{"lineitem",
			"3346299b43f83eee pairs=1299919 agree=668 rounds=5 ncover=1004 pcover=1743",
			"8e269c7675213e34 sample=1409 pairs=1409 agree=43 ncover=122 pcover=302",
			"8bb047c25c56165b pairs=295731 agree=544 rounds=1 validations=1843 invalidated=115 switchbacks=0 pcover=1728"},
		{"letter",
			"9fe712c9d1e6e11e pairs=2078904 agree=7872 rounds=47 ncover=25963 pcover=53308",
			"6d16f7445dec8b5a sample=1478 pairs=1478 agree=256 ncover=1675 pcover=6947",
			"1e33a5951a79dc6f pairs=201180 agree=3642 rounds=4 validations=92080 invalidated=4444 switchbacks=1 pcover=87636"},
	}
	ctx := context.Background()
	for _, c := range cells {
		d, err := datasets.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		enc := preprocess.Encode(d.Build())
		{
			fds, st, err := aidfd.DiscoverEncodedContext(ctx, enc, aidfd.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "aidfd "+c.name, fmt.Sprintf("%s pairs=%d agree=%d rounds=%d ncover=%d pcover=%d", coverDigest(fds),
				st.PairsCompared, st.AgreeSets, st.Rounds, st.NcoverSize, st.PcoverSize), c.aidfd)
		}
		{
			fds, st, err := kivinen.DiscoverEncodedContext(ctx, enc, kivinen.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "kivinen "+c.name, fmt.Sprintf("%s sample=%d pairs=%d agree=%d ncover=%d pcover=%d", coverDigest(fds),
				st.SampleSize, st.PairsCompared, st.AgreeSets, st.NcoverSize, st.PcoverSize), c.kivinen)
		}
		{
			fds, st, err := hyfd.DiscoverEncodedContext(ctx, enc, hyfd.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "hyfd "+c.name, fmt.Sprintf("%s pairs=%d agree=%d rounds=%d validations=%d invalidated=%d switchbacks=%d pcover=%d",
				coverDigest(fds), st.PairsCompared, st.AgreeSets, st.SamplingRounds, st.Validations, st.Invalidated,
				st.SwitchBacks, st.PcoverSize), c.hyfd)
		}
	}

	// The exact all-pairs baselines: FuzzRegistryExact holds their covers
	// to the oracle, these lines pin their work counters too. Dep-Miner
	// and FastFDs skip letter (an empty line), where each takes seconds.
	exact := []struct{ name, fdep, depminer, fastfds string }{
		{"chess",
			"9d756b2be1e8cd52 pairs=7998000 agree=126 ncover=17 pcover=2",
			"9d756b2be1e8cd52 pairs=7998000 agree=126 maxsets=17 levels=6 pcover=2",
			"9d756b2be1e8cd52 pairs=7998000 agree=126 diffsets=17 nodes=19 pcover=2"},
		{"bridges",
			"745f5a95d81e8734 pairs=5778 agree=624 ncover=422 pcover=629",
			"745f5a95d81e8734 pairs=5778 agree=624 maxsets=422 levels=10 pcover=629",
			"745f5a95d81e8734 pairs=5778 agree=624 diffsets=422 nodes=1614 pcover=629"},
		{"abalone",
			"9f9d0202b9c581a1 pairs=1999000 agree=142 ncover=263 pcover=303",
			"9f9d0202b9c581a1 pairs=1999000 agree=142 maxsets=263 levels=5 pcover=303",
			"9f9d0202b9c581a1 pairs=1999000 agree=142 diffsets=263 nodes=612 pcover=303"},
		{"adult",
			"638945dda2304c86 pairs=7998000 agree=7076 ncover=701 pcover=767",
			"638945dda2304c86 pairs=7998000 agree=7076 maxsets=701 levels=13 pcover=767",
			"638945dda2304c86 pairs=7998000 agree=7076 diffsets=701 nodes=2768 pcover=767"},
		{"letter",
			"1e33a5951a79dc6f pairs=4498500 agree=9797 ncover=25332 pcover=87636",
			"", ""},
	}
	for _, c := range exact {
		d, err := datasets.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		enc := preprocess.Encode(d.Build())
		{
			fds, st, err := fdep.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "fdep "+c.name, fmt.Sprintf("%s pairs=%d agree=%d ncover=%d pcover=%d", coverDigest(fds),
				st.PairsCompared, st.AgreeSets, st.NcoverSize, st.PcoverSize), c.fdep)
		}
		if c.depminer != "" {
			fds, st, err := depminer.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "depminer "+c.name, fmt.Sprintf("%s pairs=%d agree=%d maxsets=%d levels=%d pcover=%d", coverDigest(fds),
				st.PairsCompared, st.AgreeSets, st.MaxSets, st.Levels, st.PcoverSize), c.depminer)
		}
		if c.fastfds != "" {
			fds, st, err := fastfds.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "fastfds "+c.name, fmt.Sprintf("%s pairs=%d agree=%d diffsets=%d nodes=%d pcover=%d", coverDigest(fds),
				st.PairsCompared, st.AgreeSets, st.DiffSets, st.SearchNodes, st.PcoverSize), c.fastfds)
		}
	}
}

func check(t *testing.T, cell, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got %s\nwant %s", cell, got, want)
	}
}
