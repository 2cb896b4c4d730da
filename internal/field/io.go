package field

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/grid"
)

// Binary formats. Both are little-endian, mirroring the paper's note
// that the Convex was run with IEEE floating point (a compile-time
// option) specifically so the SGI and the Convex could share data
// without conversion.
//
// Timestep file:
//	magic  uint32 = 0x56575431 ("VWT1")
//	ni, nj, nk uint32
//	coords uint8 (0 = physical, 1 = grid)
//	pad    [3]uint8
//	u, v, w each ni*nj*nk float32
//
// Grid file:
//	magic  uint32 = 0x56575447 ("VWTG")
//	ni, nj, nk uint32
//	x, y, z each ni*nj*nk float32

const (
	fieldMagic = 0x56575431
	gridMagic  = 0x56575447
	// maxDim and maxNodes guard against allocating absurd buffers from
	// a corrupt header before reading the payload: no axis longer than
	// maxDim, no more than maxNodes samples (1 GB a component) in all.
	maxDim   = 1 << 14
	maxNodes = 1 << 28
	// fieldHeaderSize is the timestep header: magic, three dimensions,
	// the coordinate flag and its padding.
	fieldHeaderSize = 20
)

// hostLittleEndian reports whether this machine lays a float32 out in
// memory the way the file formats do, so a component can move between
// a file and its slice as one block of bytes. A big-endian host takes
// the per-value path.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteField writes f in timestep binary format.
func WriteField(w io.Writer, f *Field) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [fieldHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], fieldMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.NI))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.NJ))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.NK))
	hdr[16] = uint8(f.Coords)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("field: write header: %w", err)
	}
	for _, comp := range [][]float32{f.U, f.V, f.W} {
		if err := writeFloats(bw, comp); err != nil {
			return fmt.Errorf("field: write payload: %w", err)
		}
	}
	return bw.Flush()
}

// ReadField reads a timestep written by WriteField.
func ReadField(r io.Reader) (*Field, error) {
	f, err := ReadFieldHeader(r)
	if err != nil {
		return nil, err
	}
	if err := ReadFieldPayload(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFieldHeader reads and checks the header of a timestep file and
// returns the field it announces with no samples yet: NI, NJ, NK,
// Coords, and so MatchesGrid and SizeBytes, are the file's. A caller
// that knows what the file should hold (store.Disk: the grid's
// dimensions, the file's length) checks before ReadFieldPayload
// allocates and reads the samples.
func ReadFieldHeader(r io.Reader) (*Field, error) {
	var hdr [fieldHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("field: read header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != fieldMagic {
		return nil, fmt.Errorf("field: bad magic %#x", magic)
	}
	ni := int(binary.LittleEndian.Uint32(hdr[4:]))
	nj := int(binary.LittleEndian.Uint32(hdr[8:]))
	nk := int(binary.LittleEndian.Uint32(hdr[12:]))
	if err := checkDims(ni, nj, nk); err != nil {
		return nil, err
	}
	coords := CoordSystem(hdr[16])
	if coords != Physical && coords != GridCoords {
		return nil, fmt.Errorf("field: unknown coordinate system %d", hdr[16])
	}
	return &Field{NI: ni, NJ: nj, NK: nk, Coords: coords}, nil
}

// FileSize is the length of the timestep file that holds f.
func (f *Field) FileSize() int64 { return fieldHeaderSize + f.SizeBytes() }

// ReadFieldPayload allocates f's components and reads them from r,
// which stands just past the header ReadFieldHeader decoded f from. On
// an error f keeps no samples. A reader that knows how much it still
// holds (bytes.Reader, bytes.Buffer) is refused before anything is
// allocated if that is less than the header promised.
func ReadFieldPayload(r io.Reader, f *Field) error {
	if sized, ok := r.(interface{ Len() int }); ok && int64(sized.Len()) < f.SizeBytes() {
		return fmt.Errorf("field: read payload: %d bytes left of the %d the header announces: %w",
			sized.Len(), f.SizeBytes(), io.ErrUnexpectedEOF)
	}
	if !hostLittleEndian {
		// The per-value path reads 4 KB at a time.
		r = bufio.NewReaderSize(r, 1<<16)
	}
	full := NewField(f.NI, f.NJ, f.NK, f.Coords)
	for _, comp := range [][]float32{full.U, full.V, full.W} {
		if err := readFloats(r, comp); err != nil {
			return fmt.Errorf("field: read payload: %w", err)
		}
	}
	f.U, f.V, f.W = full.U, full.V, full.W
	return nil
}

// WriteGrid writes g in grid binary format.
func WriteGrid(w io.Writer, g *grid.Grid) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := [4]uint32{gridMagic, uint32(g.NI), uint32(g.NJ), uint32(g.NK)}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("field: write grid header: %w", err)
	}
	for _, comp := range [][]float32{g.X, g.Y, g.Z} {
		if err := writeFloats(bw, comp); err != nil {
			return fmt.Errorf("field: write grid payload: %w", err)
		}
	}
	return bw.Flush()
}

// ReadGrid reads a grid written by WriteGrid.
func ReadGrid(r io.Reader) (*grid.Grid, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("field: read grid header: %w", err)
	}
	if hdr[0] != gridMagic {
		return nil, fmt.Errorf("field: bad grid magic %#x", hdr[0])
	}
	ni, nj, nk := int(hdr[1]), int(hdr[2]), int(hdr[3])
	if err := checkDims(ni, nj, nk); err != nil {
		return nil, err
	}
	g, err := grid.New(ni, nj, nk)
	if err != nil {
		return nil, err
	}
	for _, comp := range [][]float32{g.X, g.Y, g.Z} {
		if err := readFloats(br, comp); err != nil {
			return nil, fmt.Errorf("field: read grid payload: %w", err)
		}
	}
	return g, nil
}

func checkDims(ni, nj, nk int) error {
	if ni < 2 || nj < 2 || nk < 2 || ni > maxDim || nj > maxDim || nk > maxDim ||
		int64(ni)*int64(nj)*int64(nk) > maxNodes {
		return fmt.Errorf("field: unreasonable dimensions %dx%dx%d", ni, nj, nk)
	}
	return nil
}

// floatBytes is a's memory as bytes: on a little-endian host, exactly
// the bytes the file formats hold for it.
func floatBytes(a []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a))
}

// writeFloats writes a float32 slice little-endian: on a little-endian
// host as one Write over the slice's own bytes, elsewhere a value at a
// time.
func writeFloats(w io.Writer, a []float32) error {
	if hostLittleEndian {
		_, err := w.Write(floatBytes(a))
		return err
	}
	return writeFloatsPortable(w, a)
}

// readFloats fills a from little-endian float32s: on a little-endian
// host as one io.ReadFull into the slice's own bytes, elsewhere a
// value at a time.
func readFloats(r io.Reader, a []float32) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, floatBytes(a))
		return err
	}
	return readFloatsPortable(r, a)
}

// writeFloatsPortable is writeFloats for a host of any byte order,
// without the reflection overhead of binary.Write on large slices.
func writeFloatsPortable(w io.Writer, a []float32) error {
	var buf [4096]byte
	for len(a) > 0 {
		n := len(buf) / 4
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(a[i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		a = a[n:]
	}
	return nil
}

// readFloatsPortable is readFloats for a host of any byte order.
func readFloatsPortable(r io.Reader, a []float32) error {
	var buf [4096]byte
	for len(a) > 0 {
		n := len(buf) / 4
		if n > len(a) {
			n = len(a)
		}
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		a = a[n:]
	}
	return nil
}
