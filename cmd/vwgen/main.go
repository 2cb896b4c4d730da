// Command vwgen generates unsteady flowfield datasets for the virtual
// windtunnel, standing in for the pre-computed Navier-Stokes solutions
// the paper visualized. Two sources are available: the analytic
// tapered-cylinder shedding model (fast, arbitrary resolution) and the
// internal Navier-Stokes solver (slower, genuinely simulated).
//
// Usage:
//
//	vwgen -out data/cyl -ni 32 -nj 48 -nk 12 -steps 24
//	vwgen -out data/ns  -source solver -steps 16
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/datasets"
	"repro/internal/field"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwgen: ")

	var (
		out    = flag.String("out", "", "output dataset directory (required)")
		source = flag.String("source", "analytic", "dataset source: analytic | solver")
		ni     = flag.Int("ni", 32, "radial grid nodes")
		nj     = flag.Int("nj", 48, "circumferential grid nodes")
		nk     = flag.Int("nk", 12, "spanwise grid nodes")
		steps  = flag.Int("steps", 24, "number of timesteps")
		dt     = flag.Float64("dt", 0.6, "flow time between timesteps")
		res    = flag.Int("solver-res", 48, "solver cells along X (solver source)")
		plot3d = flag.String("plot3d", "", "also export PLOT3D files (grid.xyz + step_NNNNNN.f) to this directory")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	spec := datasets.Spec{NI: *ni, NJ: *nj, NK: *nk, NumSteps: *steps, DT: float32(*dt)}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	log.Printf("grid: %dx%dx%d = %d nodes (%.2f MB/timestep)",
		spec.NI, spec.NJ, spec.NK, spec.NI*spec.NJ*spec.NK,
		float64(spec.NI*spec.NJ*spec.NK*12)/(1<<20))

	start := time.Now()
	var u *field.Unsteady
	var err error
	switch *source {
	case "analytic":
		u, err = datasets.AnalyticPhysical(spec)
	case "solver":
		u, err = datasets.SolverPhysical(spec, datasets.SolverOptions{
			Resolution: *res,
			Workers:    runtime.GOMAXPROCS(0),
			Progress: func(step, total int) {
				log.Printf("solver: snapshot %d/%d", step, total)
			},
		})
	default:
		log.Fatalf("unknown source %q (want analytic or solver)", *source)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("generated %d physical timesteps in %v", u.NumSteps(),
		time.Since(start).Round(time.Millisecond))

	if *plot3d != "" {
		// PLOT3D consumers expect physical velocities, so the export
		// runs before the in-place conversion below.
		if err := exportPLOT3D(*plot3d, u); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported PLOT3D files to %s\n", *plot3d)
	}

	if err := u.ToGridCoords(); err != nil {
		log.Fatal(err)
	}
	log.Printf("converted to grid coordinates in place (Sec 2.1 preprocessing)")

	if err := store.WriteDataset(*out, u); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d timesteps (%d bytes total) to %s\n",
		u.NumSteps(), u.SizeBytes(), *out)
}

// exportPLOT3D writes the dataset in PLOT3D whole format for interop
// with classic NASA visualization tools.
func exportPLOT3D(dir string, u *field.Unsteady) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gf, err := os.Create(filepath.Join(dir, "grid.xyz"))
	if err != nil {
		return err
	}
	if err := field.WritePLOT3DGrid(gf, u.Grid); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	for t, step := range u.Steps {
		sf, err := os.Create(filepath.Join(dir, fmt.Sprintf("step_%06d.f", t)))
		if err != nil {
			return err
		}
		if err := field.WritePLOT3DFunction(sf, step); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
	}
	return nil
}
