package memnode

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/race"
	"pandora/internal/rdma"
)

// fullScanPreload is the loader Preload replaced, kept as the layout
// reference: every key scans all ProbeLimit slots of its chain and each
// value is copied into a fresh ValueSize buffer before encoding. It
// returns the assigned slots and, when a key found no slot, that key.
func fullScanPreload(tab kvlayout.Table, buf []byte, items []Item) (slots []uint64, full bool, fullKey kvlayout.Key) {
	for _, it := range items {
		home := tab.HomeSlot(it.Key)
		slot, ok := uint64(0), false
		for i := uint64(0); i < kvlayout.ProbeLimit && i < tab.Slots; i++ {
			s := (home + i) & (tab.Slots - 1)
			kf := kvlayout.Uint64(buf[tab.SlotOffset(s)+kvlayout.SlotKeyOff:])
			if kf == kvlayout.KeyField(it.Key) {
				slot, ok = s, true
				break
			}
			if kf == 0 && !ok {
				slot, ok = s, true
			}
		}
		if !ok {
			return slots, true, it.Key
		}
		val := make([]byte, tab.ValueSize)
		copy(val, it.Value)
		off := tab.SlotOffset(slot)
		tab.EncodeSlot(buf[off:off+tab.SlotSize()], kvlayout.Slot{Version: 1, Key: it.Key, Present: true, Value: val})
		slots = append(slots, slot)
	}
	return slots, false, 0
}

// singlePartition returns a one-server, one-partition store for tab.
func singlePartition(t *testing.T, tab kvlayout.Table) (*Server, []byte) {
	t.Helper()
	ring := place.New([]rdma.NodeID{10}, 1, 1)
	srv := NewServer(rdma.NewFabric(rdma.LatencyModel{}), 10, ring, []kvlayout.Table{tab})
	return srv, srv.table(tab.ID, 0).Local()
}

// loadItems draws n items over random keys; every fifth repeats an
// earlier key and values run from empty to ValueSize bytes.
func loadItems(n, valueSize int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		k := kvlayout.Key(rng.Int63n(1 << 40))
		if i%5 == 4 {
			k = items[rng.Intn(i)].Key
		}
		v := make([]byte, rng.Intn(valueSize+1))
		rng.Read(v)
		items[i] = Item{Key: k, Value: v}
	}
	return items
}

// TestPreloadMatchesFullScan pins Preload's layout to the full-scan
// loader's: stopping where a reader's chain walk stops changes no slot,
// and a partition too full for a key fails on the same key.
func TestPreloadMatchesFullScan(t *testing.T) {
	tab := kvlayout.Table{ID: 0, ValueSize: 20, Slots: 512}
	for _, tc := range []struct {
		name     string
		items    int
		wantFull bool
	}{
		{"load20", 512 * 20 / 100, false},
		{"load50", 512 * 50 / 100, false},
		{"load80", 512 * 80 / 100, false},
		{"full", 2 * 512, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := loadItems(tc.items, tab.ValueSize, int64(tc.items))
			srv, got := singlePartition(t, tab)
			ref := make([]byte, tab.RegionSize())
			wantSlots, full, fullKey := fullScanPreload(tab, ref, items)
			slots, err := srv.Preload(tab.ID, 0, items)
			if full != tc.wantFull {
				t.Fatalf("reference full = %v, want %v", full, tc.wantFull)
			}
			if full {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("full while loading key %d", fullKey)) {
					t.Fatalf("Preload err = %v, want full on key %d", err, fullKey)
				}
			} else {
				if err != nil {
					t.Fatalf("Preload: %v", err)
				}
				if fmt.Sprint(slots) != fmt.Sprint(wantSlots) {
					t.Fatal("Preload assigned different slots than the full scan")
				}
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("region differs from the full-scan reference")
			}
		})
	}
}

// TestPreloadAllocs gates the in-place encode: loading N items allocates
// the returned slot slice and nothing per item.
func TestPreloadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	tab := kvlayout.Table{ID: 0, ValueSize: 16, Slots: 4096}
	srv, _ := singlePartition(t, tab)
	items := loadItems(1000, tab.ValueSize, 1)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.Preload(tab.ID, 0, items); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Preload of %d items made %v allocations, want 1 (the slot slice)", len(items), allocs)
	}
}
