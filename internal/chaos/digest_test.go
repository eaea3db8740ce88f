package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// logDigests pins the event log of every cell of the CI chaos matrix
// (Makefile chaos-smoke: the default mixed run at seed 42 / 8 events,
// commitpipe 3 crash points × 3 seeds, hotlock 2 × 3, reconfig 3 × 3,
// all at the CLI's default shape) as a SHA-256. The CI lane compares a
// run against a second run of the same tree; these values were computed
// at the commit before the commit-pipeline refactor, so a change to the
// engine that moves any seeded outcome fails here even when it is
// self-consistent. A deliberate change to a scenario script or the
// schedule generator updates the affected rows.
var logDigests = map[string]string{
	"mixed/seed42": "7e54061e30157c1439bfb3eb042469a15923f652c5b6c01ffe573bab40844162",

	"commitpipe/afterack/seed1":   "2c232451f71de3880d81427b24ccd62c5cb814c80712073264d9d7b31f4729c0",
	"commitpipe/afterack/seed7":   "2c4f8ded9caf3f57a6c4d1f895cf5a3a3e6167cd27a00f0198b91d04f8c31f15",
	"commitpipe/afterack/seed42":  "af6722956f3ad2499e4afe4938ec449012e568ab7b9ff84933455f9bbe68e544",
	"commitpipe/middrain/seed1":   "bd608d6752947cc57e40bef1f1446487b7f3b0d74fbcba2aeed6e31e4dd64aa1",
	"commitpipe/middrain/seed7":   "0ffacfbd58f4081980194f421be2d4502fa9ead1683e79dda7dc2ddff9a7a48b",
	"commitpipe/middrain/seed42":  "881386ce8c0a833056a1a9af998e25e898c8d477aab38a29d888b40479a91f92",
	"commitpipe/drainfail/seed1":  "f184d00c80a9fd322dfd13501ca777199f91f62571a0958c4a48aa4ffb11f0f6",
	"commitpipe/drainfail/seed7":  "f55e9e37ac1d9211ac741a40c1f5bf49da6862facf9556d1770bc093556c0278",
	"commitpipe/drainfail/seed42": "ac8a7990ff43fce39cb628f03cda25b353e6dccda8ccf5c33678416189b107ae",

	"hotlock/holder/seed1":  "78cee3f5eb1480b55d91ffb4426eecfe3e6c7d2fff953dfe4c86c6255b0f19b5",
	"hotlock/holder/seed7":  "7470c26d818ea042f425a4b33813315454999e86e30e2e8a3d3480de2917c21d",
	"hotlock/holder/seed42": "6306dd5376184fc53c0792aa6245b692f2678d8c3f46fa87320043b9605d4483",
	"hotlock/waiter/seed1":  "1d25407452747c2b8001004670801484bb946549aaaf3bea5a8f21664d7ff120",
	"hotlock/waiter/seed7":  "cb3dfb9911065def61fe5240a826c17f473631d533d6da11b3c3b6b96a279dd9",
	"hotlock/waiter/seed42": "c24004efd766fcf88c5d9bb0d3fe85cde29f0d41b53bd743f273a4c463a47bd8",

	"reconfig/coordinator/seed1":  "42df49a0c735d4b36dc6bd8531e39a0e87a10b0b2011ec294c259af600d0a806",
	"reconfig/coordinator/seed7":  "1bcc487d68036aa8dc245e8e4f748bd29b473af2cfab742d9da6eab04c5371a9",
	"reconfig/coordinator/seed42": "9c4940fb26008210c8030c64ad96d324a44044d6fe89244c64e38e337b955a05",
	"reconfig/source/seed1":       "c05367127a54b8dc25dac5006f16c60b8d2f432f8f738d4ef949a1893e85c41e",
	"reconfig/source/seed7":       "5a7cf8c227eb712ff3b0cb89950953ba8f2b0e33b684e24dd1ced2eb784423d9",
	"reconfig/source/seed42":      "fde7b39d46bab4b1080448c459fe40118742cb6b6692bd3713800856d3566e76",
	"reconfig/destination/seed1":  "8cf1ab1715a99031d5bdadb87e57592694a5a550b019697a331ed661c58f26d2",
	"reconfig/destination/seed7":  "718379cf5383a26ac19846c67dea690a1494d8c8bcdae79733168216110da363",
	"reconfig/destination/seed42": "0edd23380a3d9070f8a6a2a19a7877386192fdeb2e82b6b0ce992a7ffa5d151b",
}

// TestLogDigests runs the CI matrix and compares each event log's
// digest with the pinned one.
func TestLogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios skipped in -short mode")
	}
	type scripted struct {
		family string
		modes  []string
		run    func(Config, string) (*Result, error)
	}
	families := []scripted{
		{"commitpipe", CommitPipeModes(), RunCommitPipe},
		{"hotlock", HotlockModes(), RunHotlock},
		{"reconfig", ReconfigModes(), RunReconfig},
	}
	check := func(name string, run func(Config) (*Result, error), cfg Config) {
		t.Run(name, func(t *testing.T) {
			var log strings.Builder
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(&log, format+"\n", args...)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("run failed: %v\nlog:\n%s", err, log.String())
			}
			if len(res.Violations) > 0 {
				t.Fatalf("violations: %v\nlog:\n%s", res.Violations, log.String())
			}
			sum := sha256.Sum256([]byte(log.String()))
			if got, want := hex.EncodeToString(sum[:]), logDigests[name]; got != want {
				t.Fatalf("event log digest drifted: got %s, want %s\nlog:\n%s", got, want, log.String())
			}
		})
	}
	check("mixed/seed42", Run, Config{Seed: 42, Events: 8})
	for _, f := range families {
		for _, mode := range f.modes {
			for _, seed := range []int64{1, 7, 42} {
				f, mode := f, mode
				check(fmt.Sprintf("%s/%s/seed%d", f.family, mode, seed),
					func(cfg Config) (*Result, error) { return f.run(cfg, mode) },
					Config{Seed: seed})
			}
		}
	}
}
