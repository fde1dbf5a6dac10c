package service_test

import (
	"context"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"mufuzz/internal/fleet"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// storeDiff returns the seed fingerprints of bucket that are not in seen,
// sorted, and adds them to seen.
func storeDiff(t *testing.T, st *store.Store, bucket string, seen map[string]bool) string {
	t.Helper()
	entries, err := st.Seeds(bucket)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, e := range entries {
		if !seen[e.Name] {
			seen[e.Name] = true
			fresh = append(fresh, e.Name)
		}
	}
	sort.Strings(fresh)
	return strings.Join(fresh, ",")
}

// TestServiceAndFleetExportAlike drives one campaign through the service's
// slot loop and through a fleet worker, slice by slice, and checks that
// both paths export the same seed fingerprints in every slice: they run the
// same slice step with the same seed ledger.
func TestServiceAndFleetExportAlike(t *testing.T) {
	fixture := func(name string) (string, []byte) {
		bin, err := os.ReadFile("../../fixtures/" + name + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		abiJSON, err := os.ReadFile("../../fixtures/" + name + ".abi.json")
		if err != nil {
			t.Fatal(err)
		}
		return string(bin), abiJSON
	}
	bankBin, bankABI := fixture("bank-reentrant")
	tokBin, tokABI := fixture("erc20")
	spec := service.CampaignSpec{
		Bytecode: bankBin, ABI: bankABI, Attacker: true, Seed: 1, Iterations: 3000,
		Members: []service.WorldMemberSpec{{Name: "token", Bytecode: tokBin, ABI: tokABI}},
	}
	const rounds = 2

	svcStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Store: svcStore, SliceRounds: rounds})
	defer svc.Drain()
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var viaService []string
	seen := map[string]bool{}
	for svc.RunQueuedSlice() {
		viaService = append(viaService, storeDiff(t, svcStore, st.Contract, seen))
	}
	if cur, _ := svc.Status(st.ID); cur.State != service.StateDone {
		t.Fatalf("service campaign stopped in state %s", cur.State)
	}

	fleetStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := fleet.NewCoordinator(fleet.CoordinatorConfig{Store: fleetStore, Rounds: rounds})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := fleet.NewClient(srv.URL, 1)
	fst, err := client.Submit(context.Background(), fleet.SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := fleet.NewWorker("w", client)
	var viaFleet []string
	seen = map[string]bool{}
	for {
		ran, err := w.RunOne(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
		viaFleet = append(viaFleet, storeDiff(t, fleetStore, fst.Contract, seen))
	}

	if len(viaService) != len(viaFleet) {
		t.Fatalf("service ran %d slices, fleet %d", len(viaService), len(viaFleet))
	}
	exported := 0
	for i := range viaService {
		if viaService[i] != viaFleet[i] {
			t.Errorf("slice %d: service exported [%s], fleet [%s]", i, viaService[i], viaFleet[i])
		}
		if viaService[i] != "" {
			exported++
		}
	}
	if exported == 0 {
		t.Fatal("no slice exported a seed; the comparison is vacuous")
	}
	t.Logf("%d slices, %d of them exported seeds", len(viaService), exported)
}
