package lint

import (
	"go/ast"
	"go/types"
)

// MapRange bans ranging over a map in simulation packages: map
// iteration order is randomized per run, so any map range on the stats
// data path is a determinism leak waiting for a reordering to expose
// it. The one recognized idiom is sorted-key extraction — a loop whose
// body does nothing but append the key/value into a slice (which the
// caller then sorts); anything else needs an explicit
// //confluence:allow maprange directive with a reason.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "forbid range over maps in simulation packages",
	Run: func(pass *Pass) {
		if pass.Class != Sim {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if isKeyExtraction(rs) {
					return true
				}
				pass.Reportf(rs.For, "range over %s in a simulation package: iteration order is nondeterministic; extract keys with an append-only loop and sort, or add %s maprange <reason>", tv.Type, AllowPrefix)
				return true
			})
		}
	},
}

// isKeyExtraction recognizes the sorted-key extraction idiom: every
// statement in the loop body is `x = append(x, ...)`. The appends
// populate a slice whose ordering the caller is expected to fix with a
// sort; the loop itself cannot leak iteration order anywhere else.
func isKeyExtraction(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// wallClockFuncs are the time-package references the wallclock analyzer
// polices. Readers turn the wall clock into data (the determinism
// hazard); waiters merely schedule, which infrastructure is allowed to
// do directly.
var wallClockReaders = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}
var wallClockWaiters = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// WallClock keeps wall-clock time out of simulated stats. In sim
// packages every reader and waiter of package time is banned outright —
// simulated time is the only clock there. In infra packages, waiting is
// fine but reading must flow through an injectable seam (the
// internal/serve quota table's `now func() time.Time` field is the
// house pattern): a *call* to time.Now is flagged, while referencing
// time.Now as a value — wiring it in as a seam's default — is exactly
// how the seam is built and stays legal.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock reads outside injectable clock seams",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			// Selectors that are the callee of some call expression:
			// those report through the call branch, so the bare-
			// reference branch must skip them or every call would be
			// flagged twice.
			called := make(map[ast.Expr]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					called[ast.Unparen(call.Fun)] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, ok := pass.timeFunc(call.Fun); ok {
						switch {
						case pass.Class == Sim && (wallClockReaders[name] || wallClockWaiters[name]):
							pass.Reportf(call.Pos(), "time.%s in a simulation package: the determinism contract forbids wall-clock time on the stats path", name)
						case pass.Class == Infra && wallClockReaders[name]:
							pass.Reportf(call.Pos(), "direct time.%s call in an infra package: read the clock through an injectable `now func() time.Time` seam (see internal/serve/quota.go), or add %s wallclock <reason>", name, AllowPrefix)
						}
					}
					return true
				}
				// A bare (non-called) reference: the legal injection
				// seam default in infra, still banned in sim.
				if pass.Class != Sim {
					return true
				}
				if sel, ok := n.(*ast.SelectorExpr); ok && !called[sel] {
					if name, ok := pass.timeFunc(sel); ok && (wallClockReaders[name] || wallClockWaiters[name]) {
						pass.Reportf(sel.Pos(), "time.%s referenced in a simulation package: the determinism contract forbids wall-clock time on the stats path", name)
						return false
					}
				}
				return true
			})
		}
	},
}

// timeFunc reports whether expr is a reference to a package-level
// function of package time, returning its name.
func (p *Pass) timeFunc(expr ast.Expr) (string, bool) {
	return p.pkgFunc(expr, "time")
}

// pkgFunc resolves expr to a package-level object of pkgPath via the
// type checker (so aliased imports and shadowed identifiers resolve
// correctly), returning the object's name.
func (p *Pass) pkgFunc(expr ast.Expr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := p.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	// Only package-level selections (pkg.Func), not method calls on
	// values that happen to come from the package.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := p.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return obj.Name(), true
		}
	}
	return "", false
}

// seededRandConstructors are the math/rand and math/rand/v2 identifiers
// that do NOT touch the package-global generator: explicit sources and
// generators built from them, plus the involved types. Everything else
// at package level (Intn, Float64, Shuffle, Perm, Seed, N, ...) draws
// from the process-global source, whose seed the repo does not control.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
	"NewZipf": true,
	"Rand":    true, "Source": true, "Source64": true, "PCG": true,
	"ChaCha8": true, "Zipf": true,
}

// SeededRand bans unseeded and time-seeded randomness everywhere: no
// global math/rand (v1 or v2) top-level functions in any package, no
// time.Now-derived seeds, and in simulation packages no math/rand v1 at
// all — sim randomness threads an explicit *rand.Rand seeded from
// profile seeds, with rand/v2's PCG as the house generator.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "forbid global or time-seeded randomness",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				for _, path := range []string{"math/rand", "math/rand/v2"} {
					name, ok := pass.pkgFunc(sel, path)
					if !ok {
						continue
					}
					switch {
					case !seededRandConstructors[name]:
						pass.Reportf(sel.Pos(), "rand.%s uses the process-global generator: thread a seeded *rand.Rand (rand/v2 PCG preferred) instead, or add %s seededrand <reason>", name, AllowPrefix)
					case pass.Class == Sim && path == "math/rand":
						pass.Reportf(sel.Pos(), "math/rand (v1) in a simulation package: use math/rand/v2 with rand.NewPCG and explicit profile seeds")
					}
					return false
				}
				return true
			})
			// Time-seeded sources: a constructor whose argument subtree
			// reads the wall clock defeats the explicit-seed rule even
			// though both halves look individually plausible.
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := pass.pkgFunc(call.Fun, "math/rand")
				if !ok {
					name, ok = pass.pkgFunc(call.Fun, "math/rand/v2")
				}
				if !ok || !seededRandConstructors[name] {
					return true
				}
				seeded := false
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if seeded {
							return false
						}
						if tn, ok := pass.timeFunc(asExpr(m)); ok && wallClockReaders[tn] {
							pass.Reportf(call.Pos(), "time-seeded rand.%s: derive RNG seeds from profile/config seeds, never the wall clock", name)
							seeded = true
							return false
						}
						return true
					})
				}
				// A reported constructor's nested constructors would
				// re-report the same wall-clock seed; one finding per
				// outermost construction is enough.
				return !seeded
			})
		}
	},
}

// asExpr narrows an ast.Node to ast.Expr (nil when it is not one).
func asExpr(n ast.Node) ast.Expr {
	e, _ := n.(ast.Expr)
	return e
}

// BareGoroutine bans `go` statements in simulation packages:
// simulation-side concurrency must go through internal/parallel's
// deterministic fan-out or the cmp engine (whose stage and fast-forward
// goroutines carry explicit //confluence:allow directives with their
// in-order replay argument). Infra packages schedule goroutines freely.
var BareGoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc:  "forbid bare go statements in simulation packages",
	Run: func(pass *Pass) {
		if pass.Class != Sim {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "bare go statement in a simulation package: use internal/parallel (or justify with %s baregoroutine <reason>)", AllowPrefix)
				}
				return true
			})
		}
	},
}
