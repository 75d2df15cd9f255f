package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
)

// liftedConfig is a Kronecker-lifted config: every tap is repeated over the
// lift, and its closing layer runs on a quotient all the same.
func liftedConfig(t *testing.T) core.Config {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRegistryServesResolvedKernel: serving always builds with
// infer.FromConfig, so a config-built model — plain or lifted — numbers its
// values (its closing layer runs on a quotient), serves outputs bitwise
// identical to the CSC oracle, and keeps doing both across a reload.
func TestRegistryServesResolvedKernel(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	defer reg.Close()
	for name, cfg := range map[string]core.Config{"plain": testConfig(t), "lifted": liftedConfig(t)} {
		m, err := reg.Register(name, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		in, err := dataset.SparseBatch(8, m.InputWidth(), 5, 17)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, in.Rows())
		for r := range rows {
			rows[r] = in.RowSlice(r)
		}
		want := referenceOutputs(t, cfg, in)
		for gen := 1; gen <= 2; gen++ {
			if got := m.Info().QuotientLayers; got != 1 {
				t.Fatalf("%s generation %d: %d quotient layers, want 1", name, gen, got)
			}
			resp, err := m.Do(t.Context(), &Request{Rows: rows})
			if err != nil {
				t.Fatal(err)
			}
			got := resp.Outputs
			for r := range want {
				for c := range want[r] {
					if got[r][c] != want[r][c] {
						t.Fatalf("%s generation %d diverged from the CSC oracle at row %d col %d: got %v want %v",
							name, gen, r, c, got[r][c], want[r][c])
					}
				}
			}
			if _, err := reg.Reload(name, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHTTPModelsReportKernel: the register response and GET /v1/models
// report how each model's engines use the kernel — the layers they run as
// quotients — and the storage its layers hold (shared arrays once), and no
// "kernel" field: every model runs the same kernels.
func TestHTTPModelsReportKernel(t *testing.T) {
	_, _, ts := newTestServer(t, Policy{MaxBatch: 4, MaxLatency: time.Millisecond}, 1)

	code, body := adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBody(t, "lift", liftedConfig(t), 1))
	if code != http.StatusCreated {
		t.Fatalf("register lifted config: status %d: %s", code, body)
	}
	var info ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"kernel"`) {
		t.Fatalf("register info still reports a kernel: %s", body)
	}
	// A lifted stack runs its closing layer — both output blocks one block,
	// four residue classes of 32 columns — on a quotient.
	if info.QuotientLayers != 1 {
		t.Fatalf("register info: %d quotient layers on a lifted config, want 1", info.QuotientLayers)
	}
	// (4,4) lifted 2→2→2: two distinct 32×32 layers of 256 edges. One run of
	// weights; per layer 33+256 CSR ints and 33+256+256 CSC int32s.
	if info.DistinctLayers != 2 || info.ValueBytes != 256*8 || info.StructureBytes != 2*((33+256)*8+(33+2*256)*4) {
		t.Fatalf("register info footprint = %d distinct layers, %d structure bytes, %d value bytes",
			info.DistinctLayers, info.StructureBytes, info.ValueBytes)
	}

	// (4,4) twice: every layer past the first on a quotient.
	twice, err := core.NewConfig([]radix.System{radix.MustNew(4, 4), radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, body = adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBody(t, "twice", twice, 1)); code != http.StatusCreated {
		t.Fatalf("register (4,4)(4,4): status %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"quotient_layers":3,`) {
		t.Fatalf("register (4,4)(4,4): kernel-use fields missing from %s", body)
	}

	code, body = adminDo(t, http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list map[string][]ModelInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"kernel"`) {
		t.Fatalf("model list still reports a kernel: %s", body)
	}
	quotients := map[string]int{}
	for _, mi := range list["models"] {
		quotients[mi.Name] = mi.QuotientLayers
	}
	// "m" is testConfig's (4,4): the second layer closes the system.
	if quotients["m"] != 1 || quotients["lift"] != 1 || quotients["twice"] != 3 {
		t.Fatalf("listed quotient layers = %v, want m 1, lift 1, twice 3", quotients)
	}
}
