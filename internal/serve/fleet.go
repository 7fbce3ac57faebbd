package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/store"
)

// This file is the bridge between job specs and the fleet protocol: a
// spec of any kind decomposes into independent cells (JobSpec.Cells),
// each named by the durable store key every execution path uses for it,
// which a fleet of preemptible workers completes in any order. The final
// result never comes from the fleet: once every cell is stored, it is
// assembled from the store in canonical order, the same lookup that
// answers a stored submission at accept, so fleet output is
// byte-identical to a serial run by construction.

// fleetGrid expands a spec into the fleet's cell list. Cell IDs follow
// spec expansion order (c000, c001, ...); each cell's Key is the store
// key the engine will write the result under (JobSpec.Cells), and its
// Spec is the job's own spec with its scheduling knobs zeroed, from which
// CellRunner re-derives the cell by that key.
func fleetGrid(spec *confluence.JobSpec) ([]fleet.Cell, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	// Scheduling knobs are each worker's own business; a payload carrying
	// the parent job's fan-out would nest parallelism inside the fleet's.
	payload := *spec
	payload.Parallelism, payload.Priority = 0, 0
	data, err := json.Marshal(&payload)
	if err != nil {
		return nil, fmt.Errorf("serve: fleet grid: %w", err)
	}
	out := make([]fleet.Cell, len(cells))
	for i, c := range cells {
		out[i] = fleet.Cell{ID: fmt.Sprintf("c%03d", i), Key: c.Key, Spec: data}
	}
	return out, nil
}

// CellRunner returns the standard fleet cell runner: parse the cell's job
// spec, expand it (JobSpec.Cells), run the cell whose key is the
// manifest's through experiments.Execute — the path every other
// execution takes — and return the encoded store entry for the fleet to
// persist. The cell's programs come from the process's program table
// (confluence.GenerateCells), so a worker running one workload's cells
// back to back builds its program once. The runner never writes the
// store itself (a nil store) — the fleet owns the Put, which is what lets
// the chaos harness intercept it.
func CellRunner() fleet.Runner {
	return func(ctx context.Context, cell fleet.Cell) ([]byte, error) {
		spec, err := confluence.ParseJobSpec(cell.Spec)
		if err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		cells, err := spec.Cells()
		if err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		i := slices.IndexFunc(cells, func(c confluence.JobCell) bool { return c.Key == cell.Key })
		// Version-skew guard: a worker whose code derives other keys than
		// the manifest's would store its result where nothing looks for it
		// (or worse, where something else does). Refuse to run — the cell
		// fails loudly instead of completing uselessly.
		if i < 0 {
			return nil, fmt.Errorf("serve: fleet cell %s: no cell this worker derives from the spec has the manifest's store key %.12s (code version skew between fleet members?)", cell.ID, cell.Key)
		}
		run := cells[i : i+1]
		if err := confluence.GenerateCells(run); err != nil {
			return nil, fmt.Errorf("serve: fleet cell %s: %w", cell.ID, err)
		}
		e, err := experiments.Execute(ctx, run[0].Cell, 0, nil)
		if err != nil {
			return nil, err
		}
		return experiments.EncodeStoreEntry(e)
	}
}

// ExecuteSpecFleet runs a spec of any kind through a fleet coordinator
// rooted at o.Dir: publish the grid, participate until every cell is
// stored or quarantined, then assemble the result from the stored cells
// in canonical order — which is why fleet output is byte-identical to a
// serial run of the same spec. o.Run defaults to CellRunner.
//
// A grid that finished with quarantined cells returns the fleet Report
// alongside an error naming them: the healthy cells' results are durably
// stored (a re-run skips them), but the spec's result cannot be
// assembled.
func ExecuteSpecFleet(ctx context.Context, spec *confluence.JobSpec, storeDir string, o fleet.Options, emit func(experiments.ProgressEvent)) (*Result, *fleet.Report, error) {
	if storeDir == "" {
		return nil, nil, fmt.Errorf("serve: fleet execution requires a store directory")
	}
	grid, err := fleetGrid(spec)
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
	res, events := storedResult(store.Open(storeDir), spec)
	if res == nil {
		// An entry vanished after the fleet stored it (eviction under a
		// size cap): run what is missing inline.
		res, err := ExecuteSpec(ctx, spec, storeDir, emit)
		return res, rep, err
	}
	if emit != nil {
		for _, e := range events {
			emit(e)
		}
	}
	return res, rep, nil
}
