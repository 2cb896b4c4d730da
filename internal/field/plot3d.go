package field

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/grid"
)

// PLOT3D interop. The paper's datasets were NASA CFD solutions, which
// lived in PLOT3D files: an XYZ grid file plus per-timestep function
// files. These readers/writers use the single-block "C binary" (no
// Fortran record markers) whole format, little-endian, single
// precision:
//
//	grid file:      ni nj nk (int32), then x[], y[], z[] (float32)
//	function file:  ni nj nk nvar (int32), then var0[], var1[], ...
//
// Velocity timesteps are 3-variable function files (u, v, w).

// WritePLOT3DGrid writes g as a PLOT3D XYZ file.
func WritePLOT3DGrid(w io.Writer, g *grid.Grid) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := [3]int32{int32(g.NI), int32(g.NJ), int32(g.NK)}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("field: plot3d grid header: %w", err)
	}
	for _, comp := range [][]float32{g.X, g.Y, g.Z} {
		if err := writeFloats(bw, comp); err != nil {
			return fmt.Errorf("field: plot3d grid payload: %w", err)
		}
	}
	return bw.Flush()
}

// WritePLOT3DFunction writes f's velocity as a 3-variable PLOT3D
// function file.
func WritePLOT3DFunction(w io.Writer, f *Field) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := [4]int32{int32(f.NI), int32(f.NJ), int32(f.NK), 3}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("field: plot3d function header: %w", err)
	}
	for _, comp := range [][]float32{f.U, f.V, f.W} {
		if err := writeFloats(bw, comp); err != nil {
			return fmt.Errorf("field: plot3d function payload: %w", err)
		}
	}
	return bw.Flush()
}
