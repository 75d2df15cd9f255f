package cliutil

import (
	"strings"
	"testing"
)

func TestParseSystems(t *testing.T) {
	systems, err := ParseSystems("(3,3,4);(2,3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 || systems[0].Product() != 36 || systems[1].Product() != 6 {
		t.Fatalf("parsed %v", systems)
	}
	// Bare form without parentheses.
	systems, err = ParseSystems("2,2;4")
	if err != nil {
		t.Fatal(err)
	}
	if systems[0].Product() != 4 || systems[1].Product() != 4 {
		t.Fatalf("parsed %v", systems)
	}
	for _, bad := range []string{"", "   ", "(1,2)", "(2,x)"} {
		if _, err := ParseSystems(bad); err == nil {
			t.Fatalf("ParseSystems(%q) accepted", bad)
		}
	}
}

func TestParseClassWeights(t *testing.T) {
	w, err := ParseClassWeights("interactive=8, batch=2 ,background=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 || w["interactive"] != 8 || w["batch"] != 2 || w["background"] != 1 {
		t.Fatalf("weights = %v", w)
	}
	empty, err := ParseClassWeights("  ")
	if err != nil || empty != nil {
		t.Fatalf("empty spec: %v %v", empty, err)
	}
	for _, bad := range []string{"interactive", "=3", "a=0", "a=-1", "a=x", "a=1,a=2"} {
		if _, err := ParseClassWeights(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseZones(t *testing.T) {
	z, err := ParseZones("10.0.0.7:8080=rack-a, http://10.0.0.8:8080=rack-b")
	if err != nil {
		t.Fatal(err)
	}
	if len(z) != 2 || z["10.0.0.7:8080"] != "rack-a" || z["http://10.0.0.8:8080"] != "rack-b" {
		t.Fatalf("zones = %v", z)
	}
	for _, bad := range []string{"a:1", "=rack", "a:1=", "a:1=x,a:1=y"} {
		if _, err := ParseZones(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestGitSHA(t *testing.T) {
	sha := GitSHA()
	if sha == "" {
		t.Fatal("empty SHA")
	}
	if sha != "unknown" {
		for _, c := range sha {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("SHA %q has non-hex rune %q", sha, c)
			}
		}
	}
}
