package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// zoneMapFn adapts a map to WalkSpread's lookup.
func zoneMapFn(zones map[string]string) func(string) string {
	return func(node string) string { return zones[node] }
}

// TestWalkSpreadZoneDiversity is the placement property test: over random
// fleets and zone maps, the first R nodes of the zone-diverse walk touch at
// least min(R, zones) distinct zones, and the visit order is prefix-stable
// (OwnersSpread(n) is a prefix of OwnersSpread(n+1)) — the property that
// lets the autoscaler grow a replica set without moving existing replicas.
func TestWalkSpreadZoneDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(30)
		zoneCount := 1 + rng.Intn(6)
		ring := NewRing(64)
		zones := make(map[string]string, n)
		zoneSet := make(map[string]bool)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("node-%d-%d", trial, i)
			z := fmt.Sprintf("zone-%d", rng.Intn(zoneCount))
			ring.Add(id)
			zones[id] = z
			zoneSet[z] = true
		}
		distinct := len(zoneSet)
		zoneOf := zoneMapFn(zones)
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("model-%d", k)
			var prev []string
			for r := 1; r <= n; r++ {
				owners := ring.OwnersSpread(key, r, zoneOf)
				if len(owners) != r {
					t.Fatalf("trial %d key %q: OwnersSpread(%d) returned %d owners", trial, key, r, len(owners))
				}
				seen := make(map[string]bool)
				uniq := make(map[string]bool)
				for _, id := range owners {
					if uniq[id] {
						t.Fatalf("trial %d key %q: duplicate owner %q", trial, key, id)
					}
					uniq[id] = true
					seen[zoneOf(id)] = true
				}
				want := r
				if distinct < want {
					want = distinct
				}
				if len(seen) < want {
					t.Fatalf("trial %d key %q: %d replicas span %d zones, want >= %d (fleet has %d)",
						trial, key, r, len(seen), want, distinct)
				}
				for i := range prev {
					if prev[i] != owners[i] {
						t.Fatalf("trial %d key %q: OwnersSpread(%d) is not a prefix of OwnersSpread(%d): %v vs %v",
							trial, key, r-1, r, prev, owners)
					}
				}
				prev = owners
			}
		}
	}
}

// TestWalkSpreadUnzonedDegradesToWalk pins the compatibility contract: with
// no zones configured the zone-diverse walk is exactly the plain clockwise
// walk, so pre-zone fleets place identically after the upgrade.
func TestWalkSpreadUnzonedDegradesToWalk(t *testing.T) {
	ring := NewRing(0)
	for i := 0; i < 12; i++ {
		ring.Add(fmt.Sprintf("b%d:8080", i))
	}
	for k := 0; k < 40; k++ {
		key := fmt.Sprintf("model-%d", k)
		plain := ring.Owners(key, 12)
		spread := ring.OwnersSpread(key, 12, func(string) string { return "" })
		if len(plain) != len(spread) {
			t.Fatalf("key %q: length mismatch %d vs %d", key, len(plain), len(spread))
		}
		for i := range plain {
			if plain[i] != spread[i] {
				t.Fatalf("key %q: unzoned spread diverges from walk at %d: %v vs %v", key, i, plain, spread)
			}
		}
	}
}

// TestWalkSpreadKeyMovementOnZoneJoinLeave checks that zone awareness keeps
// consistent hashing's headline property: when a zone of nodes joins (or
// leaves), only roughly the joining zone's share of keys change their
// primary owner — not a wholesale reshuffle. The bound is deliberately
// loose (3x the fair share plus slack) to stay robust across seeds.
func TestWalkSpreadKeyMovementOnZoneJoinLeave(t *testing.T) {
	const existing, joining, keys = 12, 4, 2000
	zones := make(map[string]string)
	small := NewRing(DefaultVnodes)
	large := NewRing(DefaultVnodes)
	for i := 0; i < existing; i++ {
		id := fmt.Sprintf("old-%d", i)
		zones[id] = fmt.Sprintf("zone-%d", i%3)
		small.Add(id)
		large.Add(id)
	}
	for i := 0; i < joining; i++ {
		id := fmt.Sprintf("new-%d", i)
		zones[id] = "zone-new"
		large.Add(id)
	}
	zoneOf := zoneMapFn(zones)
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("model-%d", k)
		before := small.OwnersSpread(key, 1, zoneOf)
		after := large.OwnersSpread(key, 1, zoneOf)
		if before[0] != after[0] {
			moved++
		}
	}
	// Fair share: joining/(existing+joining) of keys gain a new primary.
	// The zone-diverse reordering can shift a few more (a new first-of-zone
	// node outranks an old same-zone successor), hence the slack.
	share := float64(joining) / float64(existing+joining)
	frac := float64(moved) / keys
	if frac > 3*share {
		t.Fatalf("zone join moved %.1f%% of primaries, want <= %.1f%%", 100*frac, 300*share)
	}
	if moved == 0 {
		t.Fatal("zone join moved no keys: the new nodes own nothing")
	}
}

// TestZoneSeedsNormalized pins the -zones seed contract: a seed may name a
// backend in either address form -backend accepts, and a seed naming no
// backend is refused by its key rather than silently dropped.
func TestZoneSeedsNormalized(t *testing.T) {
	set, err := NewBackendSet([]string{"10.0.0.7:8080", "http://10.0.0.8:8080"}, SetConfig{
		Zones: map[string]string{"http://10.0.0.7:8080": "zone-a", "10.0.0.8:8080/": "zone-b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]string{"10.0.0.7:8080": "zone-a", "10.0.0.8:8080": "zone-b"} {
		b, ok := set.Backend(id)
		if !ok || b.Zone() != want {
			t.Errorf("backend %s: zone %q, want %q", id, b.Zone(), want)
		}
	}
	_, err = NewBackendSet([]string{"10.0.0.7:8080"}, SetConfig{Zones: map[string]string{"10.0.0.9:8080": "zone-c"}})
	if err == nil || !strings.Contains(err.Error(), "10.0.0.9:8080") {
		t.Fatalf("seed naming no backend: err %v, want one naming the key", err)
	}
}
