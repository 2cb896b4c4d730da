// Command vwbench regenerates the paper's evaluation: the arithmetic of
// Tables 1-3, the §5.3 benchmark priced by the calibrated 1992 cost
// models, §1.2's isosurface exclusion, and figures 1-3 plus a bonus
// isosurface figure. Every number it prints and every byte it writes is
// a function of the code alone, so its test pins the whole output;
// what this host measures is the benchmark's job (benchmark/run.sh).
//
// Usage:
//
//	vwbench                  # tables to stdout, figures into ./figures
//	vwbench -figdir DIR      # figures into DIR
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vwbench: ")
	figDir := flag.String("figdir", "figures", "output directory for figure PPMs")
	flag.Parse()
	if err := run(os.Stdout, *figDir); err != nil {
		log.Fatal(err)
	}
}

// run prints the tables to out and writes the figures into figDir,
// captioning each on out.
func run(out io.Writer, figDir string) error {
	engines, err := engineTable()
	if err != nil {
		return err
	}
	iso, err := isoTable()
	if err != nil {
		return err
	}
	for _, t := range []*table{table1(), table2(), table3(), engines, iso} {
		if err := t.fprint(out); err != nil {
			return err
		}
	}
	return writeFigures(out, figDir)
}

// table is a printable experiment result.
type table struct {
	title  string
	note   string
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n%s\n", t.title, t.note); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.header, "\t"))
	for _, row := range t.rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}
