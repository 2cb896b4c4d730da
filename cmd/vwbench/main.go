// Command vwbench regenerates every table and figure in the paper's
// evaluation, plus the architecture measurements and ablations
// DESIGN.md calls out.
//
// Usage:
//
//	vwbench                  # everything
//	vwbench -table 1         # just Table 1 (arithmetic + measured)
//	vwbench -table 3
//	vwbench -figure 2        # writes figures/fig2_streamlines_t0.ppm
//	vwbench -bench engines   # the Sec 5.3 engine benchmark
//	vwbench -bench pipeline  # figure 8
//	vwbench -bench client    # figure 9
//	vwbench -bench dlibio    # figures 6/7
//	vwbench -bench ablations
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/field"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwbench: ")

	var (
		table   = flag.Int("table", 0, "regenerate one table (1-3), 0 = per other flags")
		figure  = flag.Int("figure", 0, "regenerate one figure (1-3)")
		name    = flag.String("bench", "", "run one bench: engines | pipeline | client | dlibio | multiblock | ablations")
		figDir  = flag.String("figdir", "figures", "output directory for figure PPMs")
		measure = flag.Bool("measure", true, "include measured (not just arithmetic) variants")
		all     = flag.Bool("all", false, "run everything")
	)
	flag.Parse()
	if *table == 0 && *figure == 0 && *name == "" {
		*all = true
	}

	r := runner{figDir: *figDir, measure: *measure}
	switch {
	case *all:
		r.tables(1, 2, 3)
		r.figures(1, 2, 3, 4)
		r.bench("engines")
		r.bench("pipeline")
		r.bench("client")
		r.bench("dlibio")
		r.bench("multiblock")
		r.bench("ablations")
	default:
		if *table != 0 {
			r.tables(*table)
		}
		if *figure != 0 {
			r.figures(*figure)
		}
		if *name != "" {
			r.bench(*name)
		}
	}
}

type runner struct {
	figDir  string
	measure bool
	dataset *field.Unsteady
}

func (r *runner) data() *field.Unsteady {
	if r.dataset == nil {
		log.Printf("building synthetic tapered-cylinder dataset")
		u, err := bench.BuildDataset(bench.DefaultDatasetSpec())
		if err != nil {
			log.Fatal(err)
		}
		r.dataset = u
	}
	return r.dataset
}

func (r *runner) print(t *bench.Table, err error) {
	if err != nil {
		log.Fatal(err)
	}
	if err := t.Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func (r *runner) tables(nums ...int) {
	for _, n := range nums {
		switch n {
		case 1:
			r.print(bench.Table1(), nil)
			if r.measure {
				r.print(bench.Table1Measured(5))
			}
		case 2:
			r.print(bench.Table2(), nil)
		case 3:
			r.print(bench.Table3(), nil)
		default:
			log.Fatalf("no table %d (paper has tables 1-3)", n)
		}
	}
}

func (r *runner) figures(nums ...int) {
	u := r.data()
	for _, n := range nums {
		switch n {
		case 1:
			res, err := bench.Figure1(u, filepath.Join(r.figDir, "fig1_streaklines.ppm"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nfigure 1 (streaklines as smoke): %s\n  %d filaments, %d particles, %d lit pixels\n",
				res.Path, res.Lines, res.Points, res.LitPixels)
		case 2:
			res, err := bench.Figure2(u, filepath.Join(r.figDir, "fig2_streamlines_t0.ppm"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nfigure 2 (streamlines, early time): %s\n  %d streamlines, %d points, %d lit pixels\n",
				res.Path, res.Lines, res.Points, res.LitPixels)
		case 3:
			res, div, err := bench.Figure3(u, filepath.Join(r.figDir, "fig3_streamlines_t1.ppm"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nfigure 3 (same seeds, later time): %s\n  %d streamlines, %d points, %d lit pixels\n",
				res.Path, res.Lines, res.Points, res.LitPixels)
			fmt.Printf("  mean path divergence vs figure 2: %.3f units (unsteadiness)\n", div)
		case 4:
			res, err := bench.FigureIsosurface(u, filepath.Join(r.figDir, "fig4_isosurface_bonus.ppm"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nbonus figure (offline isosurface tool): %s\n  %d triangles, %d lit pixels\n",
				res.Path, res.Lines, res.LitPixels)
		default:
			log.Fatalf("no figure %d (1-3 from the paper, 4 = bonus isosurface)", n)
		}
	}
}

func (r *runner) bench(name string) {
	switch name {
	case "engines":
		r.print(bench.EngineBench())
	case "pipeline":
		r.print(bench.Fig8Pipeline(r.data(), 30<<20, 20))
	case "client":
		r.print(bench.Fig9Client(r.data(), 20*time.Millisecond, 10))
	case "dlibio":
		r.print(bench.Fig67DlibIO(r.data()))
	case "multiblock":
		r.print(bench.MultiblockBench())
	case "ablations":
		r.print(bench.AblationIntegrators())
		r.print(bench.AblationGridCoords(r.data(), 1000))
		r.print(bench.AblationEncoding(10000), nil)
		r.print(bench.AblationIsosurface())
	default:
		log.Fatalf("unknown bench %q", name)
	}
}
