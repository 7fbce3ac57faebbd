package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/store"
)

// This file is the bridge between job specs and the fleet protocol: a
// point or sweep spec decomposes into independent cells — each a
// self-contained point spec plus the durable store key RunCtx would use
// for it (JobSpec.Cells) — which a fleet of preemptible workers completes
// in any order. The final result never comes from the fleet: once every
// cell is stored, it is assembled from the store in canonical order, the
// same lookup that answers a stored submission at accept, so fleet output
// is byte-identical to a serial run by construction.

// FleetCells expands a point or sweep spec into the fleet's cell list.
// Cell IDs follow spec expansion order (c000, c001, ...); each cell's
// Spec is the point JobSpec that reproduces exactly that simulation, and
// its Key is the store key the engine will write the result under.
// Mixstudy specs do not decompose (their cells share ablation state) and
// are rejected here.
func FleetCells(spec *confluence.JobSpec) ([]fleet.Cell, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, fmt.Errorf("serve: fleet cells: %w", err)
	}
	return fleetGrid(cells)
}

// fleetGrid maps a spec's cells onto fleet cells.
func fleetGrid(cells []confluence.JobCell) ([]fleet.Cell, error) {
	out := make([]fleet.Cell, len(cells))
	for i, c := range cells {
		// Scheduling knobs are each worker's own business; a cell spec
		// carrying the parent job's fan-out would nest parallelism inside
		// the fleet's.
		c.Spec.Parallelism = 0
		c.Spec.Priority = 0
		data, err := json.Marshal(&c.Spec)
		if err != nil {
			return nil, fmt.Errorf("serve: grid cell %d: %w", i, err)
		}
		out[i] = fleet.Cell{ID: fmt.Sprintf("c%03d", i), Key: c.Key, Spec: data}
	}
	return out, nil
}

// CellRunner returns the standard fleet cell runner: parse the cell's
// point spec, run its cell through experiments.Execute — the path every
// other execution takes — and return the encoded store entry for the
// fleet to persist. The runner never writes the store itself (a nil
// store) — the fleet owns the Put, which is what lets the chaos harness
// intercept it.
func CellRunner() fleet.Runner {
	return func(ctx context.Context, cell fleet.Cell) ([]byte, error) {
		spec, err := confluence.ParseJobSpec(cell.Spec)
		if err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		cfg, err := spec.Config()
		if err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		c, err := confluence.ConfigCellSpec(cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		// Version-skew guard: a worker whose code derives a different key
		// than the manifest's would store its result where nothing looks
		// for it (or worse, where something else does). Refuse to run — the
		// cell fails loudly instead of completing uselessly.
		if key, ok := c.Key(); !ok || key != cell.Key {
			return nil, fmt.Errorf("serve: fleet cell %s: this worker derives store key %.12s, manifest says %.12s (code version skew between fleet members?)", cell.ID, key, cell.Key)
		}
		e, err := experiments.Execute(ctx, c, 0, nil)
		if err != nil {
			return nil, err
		}
		return experiments.EncodeStoreEntry(e)
	}
}

// ExecuteSpecFleet runs a spec through a fleet coordinator rooted at
// o.Dir: publish the grid, participate until every cell is stored or
// quarantined, then assemble the result from the stored cells in
// canonical order — which is why fleet output is byte-identical to a
// serial run of the same spec. o.Run defaults to CellRunner.
//
// A grid that finished with quarantined cells returns the fleet Report
// alongside an error naming them: the healthy cells' results are durably
// stored (a re-run skips them), but the spec's result cannot be
// assembled. Mixstudy specs fall back to inline store-backed execution
// (nil Report).
func ExecuteSpecFleet(ctx context.Context, spec *confluence.JobSpec, storeDir string, o fleet.Options, emit func(experiments.ProgressEvent)) (*Result, *fleet.Report, error) {
	if storeDir == "" {
		return nil, nil, fmt.Errorf("serve: fleet execution requires a store directory")
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if spec.NormKind() == confluence.KindMixStudy {
		res, err := ExecuteSpec(ctx, spec, storeDir, emit)
		return res, nil, err
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil, err
	}
	grid, err := fleetGrid(cells)
	if err != nil {
		return nil, nil, err
	}
	if o.Run == nil {
		o.Run = CellRunner()
	}
	rep, err := fleet.Coordinator(ctx, o, storeDir, grid)
	if err != nil {
		return nil, nil, err
	}
	if rep.Failed() {
		descs := make([]string, len(rep.Poisoned))
		for i, p := range rep.Poisoned {
			descs[i] = fmt.Sprintf("%s after %d attempts: %s", p.CellID, p.Attempts, p.LastErr)
		}
		return nil, rep, fmt.Errorf("serve: fleet quarantined %d cell(s): %s", len(descs), strings.Join(descs, "; "))
	}
	res := storedResult(store.Open(storeDir), spec.NormKind(), cells)
	if res == nil {
		// An entry vanished after the fleet stored it (eviction under a
		// size cap): run what is missing inline.
		res, err := ExecuteSpec(ctx, spec, storeDir, emit)
		return res, rep, err
	}
	if emit != nil {
		for i := range res.Cells {
			emit(res.Cells[i].progress())
		}
	}
	return res, rep, nil
}
