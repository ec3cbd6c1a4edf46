package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/dvs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// spinFallbackDigests holds the SHA-256 of each run's Result JSON,
// keyed workload/strategy/threshold. They were recorded when every
// wait still queued its own spin-threshold closure, so they pin that
// the node's lazily applied fall (machine.Node.SpinFor) is exact: same
// Blocked time, same energies, same everything, at both shard counts.
// The spin-forever (negative threshold) digests were recorded while a
// rendezvous Isend still ran in a helper process.
var spinFallbackDigests = map[string]string{
	"ft.A16/static/0.000000s":         "032d7d24cd18ef1edf6e0f29af7c3dc859bd1a529f71f7a74a7e7cbc6f8e6767",
	"ft.A16/static/0.000200s":         "f45cc6a15c9ab477ac5e92a6547beed7cbdd08c86c60d57f3266561396f70754",
	"ft.A16/static/4.000000s":         "7e0539fd86bb97924c5654576a4bcdfe530ecaa2827f96907c5c456b27a2f0b1",
	"ft.A16/static/spin-forever":      "7e0539fd86bb97924c5654576a4bcdfe530ecaa2827f96907c5c456b27a2f0b1",
	"ft.A16/cpuspeed/0.000000s":       "f7e3d128ac94b994b2a15d956aec2e2bcb90d545acf694113fa60dc0a5d039ed",
	"ft.A16/cpuspeed/0.000200s":       "8597ca9eec1a53dab7c6cdbfb9e68df430ac480f26baa44d564ed665610d32c8",
	"ft.A16/cpuspeed/4.000000s":       "cd7731cf9e9731d37b7835dfeb1d797af9acdcdd0bd3c699e370f77ef906fd3b",
	"ft.A16/cpuspeed/spin-forever":    "cd7731cf9e9731d37b7835dfeb1d797af9acdcdd0bd3c699e370f77ef906fd3b",
	"ft.A16/slack/0.000000s":          "c5bb4455167d333bcf342dccf7db8ba34360b31341cb4e3794d1646748b75dff",
	"ft.A16/slack/0.000200s":          "8b6a32945da9e66c60f17ffdf2a2639e7f867acfab6742b35bb86a8f17f624fd",
	"ft.A16/slack/4.000000s":          "d2b5c402b5f2731acd1af6e7c2a49413dc83e2b35519ce0073faf1835a59d5e2",
	"ft.A16/slack/spin-forever":       "d2b5c402b5f2731acd1af6e7c2a49413dc83e2b35519ce0073faf1835a59d5e2",
	"synthetic/static/0.000000s":      "49591393abb58cd1b02d02c0864c7b11955d6cb52754fef2923f9c3d31f51586",
	"synthetic/static/0.000200s":      "2a23f018f4668437da11bc06d296fbf2e7004254f6e2ba743150b5e6ad82d339",
	"synthetic/static/4.000000s":      "e8430839251c3f64913f3e284e5e6162583bcaf9c7cf62b40815c96737586a9f",
	"synthetic/static/spin-forever":   "e8430839251c3f64913f3e284e5e6162583bcaf9c7cf62b40815c96737586a9f",
	"synthetic/cpuspeed/0.000000s":    "52154cd4ef3c83a5cad5688efda98c7d7593bc9c0e8591747a40fd60661e8170",
	"synthetic/cpuspeed/0.000200s":    "ea2a0c56d7918858f2a8fe69159f88fd4f68018fea514b37f9b050d71dcd0d6a",
	"synthetic/cpuspeed/4.000000s":    "d09cae09396441e90dd6f6d6fc709ffc011d168bda97658b415045f3e2e29744",
	"synthetic/cpuspeed/spin-forever": "d09cae09396441e90dd6f6d6fc709ffc011d168bda97658b415045f3e2e29744",
	"synthetic/slack/0.000000s":       "5ca2f534fc35ac47e94ae96d946920b316236a7c9f1a35bf896279630f7cedda",
	"synthetic/slack/0.000200s":       "7adbf0053fc094646d9989ceed9660003e11e2cf1a90108e5c7835ae8c6f9aeb",
	"synthetic/slack/4.000000s":       "eb57b17c0edf3cb166e72edf226c74d604b7a22107abb33d260f613deb1c95c8",
	"synthetic/slack/spin-forever":    "eb57b17c0edf3cb166e72edf226c74d604b7a22107abb33d260f613deb1c95c8",
	"transpose/static/0.000000s":      "9fb7185dfa3058be556337b1283d22b54d83208d6b1cb2e00f8dc119fbe7fed6",
	"transpose/static/0.000200s":      "180164d8b861fd0a22bce821d0e0fe60c5af141078f6327be482678f450e4256",
	"transpose/static/4.000000s":      "35e0ac1f21bffbc079caec1fa79f4b90e32fb3871d6e2d62569d340b62bdf9d0",
	"transpose/static/spin-forever":   "66b53944a955c465ac6fe87ec6e187d3d454d22f212db3c25c6eb0e799e3e1af",
	"transpose/cpuspeed/0.000000s":    "1bc70a8593bb419788cc19b0974f9bd299d802bcc2c1bd2df5ea9847fdb5c831",
	"transpose/cpuspeed/0.000200s":    "ff0586ed52bae7caea8c9a3f3cbc583480f2d97cb1d5d4696ad1c165cd324758",
	"transpose/cpuspeed/4.000000s":    "dfb91e43268c04ce9723eda83da91522334e8663ba644c5a08ec308446a09c3a",
	"transpose/cpuspeed/spin-forever": "23c5f119c206440b05273c07b316d5a43565ea13fc7ee03441355a3c4dc3d793",
	"transpose/slack/0.000000s":       "d7c0a8465a3a4905e510d91e80bf30cc55682819cd7a0259e6f2e428dae25d0b",
	"transpose/slack/0.000200s":       "9909fbd9b47e6a9d9376474c7fd427da3a6b14d8d49d1dee69c4b0679bc57260",
	"transpose/slack/4.000000s":       "ebd4167af34bbdeed0b4342b4b0f05a029142551339c7d31fca688d9059a0903",
	"transpose/slack/spin-forever":    "791a74c85df825766be421b90cc4d18f5bf57f59c4ed7162c8932d0a80470c5c",
}

// TestSpinFallbackDigests pins MPI's spin→Blocked fallback, which no
// default-threshold paper workload except the transpose ever fires.
// Each case runs at 1 and 2 shards against one recorded digest. Every
// case where the fallback must fire asserts Blocked time > 0 so the pin
// cannot pass vacuously, and a negative threshold (spin forever)
// asserts that no wait ever blocks.
func TestSpinFallbackDigests(t *testing.T) {
	ft := func() workloads.Workload {
		f := workloads.NewFT('A', 16)
		f.IterOverride = 2
		return f
	}
	progs := []struct {
		name string
		make func() workloads.Workload
		// blocksAtDefault: the default 4 s threshold still falls back.
		blocksAtDefault bool
	}{
		{"ft.A16", ft, false},
		{"synthetic", func() workloads.Workload { return workloads.NewSynthetic(3, 16, 16, 3) }, false},
		{"transpose", func() workloads.Workload { return workloads.NewTranspose(1) }, true},
	}
	strategies := []func() dvs.Strategy{
		func() dvs.Strategy { return dvs.Static{} },
		func() dvs.Strategy { return dvs.NewCpuspeed() },
		func() dvs.Strategy { return dvs.NewSlack() },
	}
	thresholds := []sim.Duration{-1, 0, 200 * sim.Microsecond, mpi.DefaultConfig().SpinThreshold}
	for _, prog := range progs {
		for _, newStrat := range strategies {
			for _, thr := range thresholds {
				label := thr.String()
				if thr < 0 {
					label = "spin-forever"
				}
				key := fmt.Sprintf("%s/%s/%s", prog.name, newStrat().Name(), label)
				for _, shards := range []int{1, 2} {
					cfg := quickConfig()
					cfg.MPI.SpinThreshold = thr
					cfg.Shards = shards
					res, err := MustRunner(cfg).RunOnce(prog.make(), newStrat(), 0, 1)
					if err != nil {
						t.Fatalf("%s at %d shards: %v", key, shards, err)
					}
					var blocked sim.Duration
					for _, nr := range res.Nodes {
						blocked += nr.StateTime[machine.Blocked]
					}
					switch {
					case thr < 0:
						if blocked != 0 {
							t.Errorf("%s at %d shards: %v Blocked while spinning forever", key, shards, blocked)
						}
					case thr < mpi.DefaultConfig().SpinThreshold || prog.blocksAtDefault:
						if blocked <= 0 {
							t.Errorf("%s at %d shards: the spin fallback never fired", key, shards)
						}
					}
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(js)
					got := hex.EncodeToString(sum[:])
					if want := spinFallbackDigests[key]; got != want {
						t.Errorf("%s at %d shards: result digest %s, want %s", key, shards, got, want)
					}
				}
			}
		}
	}
}
