package field

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

// awkwardBits are float32 bit patterns a conversion through a float
// register or a careless copy could change: quiet and signalling NaNs
// with payloads, both zeros, denormals, the infinities and the extremes.
var awkwardBits = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc00001, 0x7fffffff, 0x7f800001, 0xff800001, 0x7fa5a5a5,
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff, 0x00800000, 0x3f800000, 0xdeadbeef,
}

// awkwardField fills a field with awkwardBits, each component starting
// elsewhere in the list.
func awkwardField(ni, nj, nk int) *Field {
	f := NewField(ni, nj, nk, GridCoords)
	for c, comp := range [][]float32{f.U, f.V, f.W} {
		for i := range comp {
			comp[i] = math.Float32frombits(awkwardBits[(i+7*c)%len(awkwardBits)])
		}
	}
	return f
}

// readField reads a timestep through the pair store.Disk reads with:
// ReadFieldHeader, then ReadFieldPayload.
func readField(r io.Reader) (*Field, error) {
	f, err := ReadFieldHeader(r)
	if err != nil {
		return nil, err
	}
	if err := ReadFieldPayload(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// readStep reads a timestep file's bytes as store.Disk reads the file:
// the header, the file's length against the one the header implies,
// then the payload.
func readStep(data []byte) (*Field, error) {
	r := bytes.NewReader(data)
	f, err := ReadFieldHeader(r)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != f.FileSize() {
		return nil, fmt.Errorf("field: file is %d bytes, want %d", len(data), f.FileSize())
	}
	if err := ReadFieldPayload(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// opaque hides everything about a reader but Read: no Len to consult.
type opaque struct{ io.Reader }

// TestFieldIOBitExact: readField(WriteField(f)) returns every sample
// bit for bit, through the bulk path this host takes and through the
// per-value path a big-endian host would take, in every pairing — they
// write the same bytes and read the same values.
func TestFieldIOBitExact(t *testing.T) {
	f := awkwardField(3, 5, 4)
	var file bytes.Buffer
	if err := WriteField(&file, f); err != nil {
		t.Fatal(err)
	}
	if int64(file.Len()) != f.FileSize() {
		t.Fatalf("file is %d bytes, FileSize says %d", file.Len(), f.FileSize())
	}
	for name, r := range map[string]io.Reader{
		"sized":  bytes.NewReader(file.Bytes()),
		"opaque": opaque{bytes.NewReader(file.Bytes())},
		"halves": iotest.HalfReader(bytes.NewReader(file.Bytes())),
		"bytes":  iotest.OneByteReader(bytes.NewReader(file.Bytes())),
	} {
		got, err := readField(r)
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		if got.NI != 3 || got.NJ != 5 || got.NK != 4 || got.Coords != GridCoords {
			t.Fatalf("%s reader: header %dx%dx%d coords %d", name, got.NI, got.NJ, got.NK, got.Coords)
		}
		sameFieldBits(t, name+" reader", got, f)
	}

	// The two float paths, whichever this host uses by default.
	var bulk, portable bytes.Buffer
	if err := writeFloats(&bulk, f.V); err != nil {
		t.Fatal(err)
	}
	if err := writeFloatsPortable(&portable, f.V); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bulk.Bytes(), portable.Bytes()) {
		t.Fatal("writeFloats and writeFloatsPortable wrote different bytes")
	}
	for i, v := range f.V {
		if got := binary.LittleEndian.Uint32(bulk.Bytes()[4*i:]); got != math.Float32bits(v) {
			t.Fatalf("value %d on disk as %#08x, want %#08x little-endian", i, got, math.Float32bits(v))
		}
	}
	viaBulk, viaPortable := make([]float32, len(f.V)), make([]float32, len(f.V))
	if err := readFloats(bytes.NewReader(portable.Bytes()), viaBulk); err != nil {
		t.Fatal(err)
	}
	if err := readFloatsPortable(bytes.NewReader(bulk.Bytes()), viaPortable); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "readFloats", viaBulk, f.V)
	sameBits(t, "readFloatsPortable", viaPortable, f.V)
	if err := readFloats(bytes.NewReader(nil), nil); err != nil {
		t.Errorf("empty slice: %v", err)
	}
}

// TestReadFieldTruncatedEverywhere cuts a timestep file at every
// boundary — inside the header, at its end, around the end of each
// component — and one byte either side: every cut is an error, and no
// partly read field comes back, from a reader that knows its length and
// from one that does not, through both float paths.
func TestReadFieldTruncatedEverywhere(t *testing.T) {
	f := awkwardField(4, 3, 5)
	var file bytes.Buffer
	if err := WriteField(&file, f); err != nil {
		t.Fatal(err)
	}
	b := file.Bytes()
	comp := int(f.SizeBytes() / 3)
	var cuts []int
	for _, at := range []int{0, 4, 16, fieldHeaderSize, fieldHeaderSize + comp, fieldHeaderSize + 2*comp, len(b)} {
		for _, d := range []int{-1, 0, 1} {
			if c := at + d; c >= 0 && c < len(b) {
				cuts = append(cuts, c)
			}
		}
	}
	for _, cut := range cuts {
		for name, r := range map[string]io.Reader{
			"sized":  bytes.NewReader(b[:cut]),
			"opaque": opaque{bytes.NewReader(b[:cut])},
		} {
			got, err := readField(r)
			if err == nil || got != nil {
				t.Errorf("cut at %d of %d, %s reader: field %v, err %v", cut, len(b), name, got != nil, err)
			}
		}
		if cut >= fieldHeaderSize {
			a := make([]float32, f.NumNodes())
			if err := readFloatsPortable(bytes.NewReader(b[cut:]), a); err == nil && len(b)-cut < 4*len(a) {
				t.Errorf("readFloatsPortable filled %d values from %d bytes", len(a), len(b)-cut)
			}
		}
	}
	// A payload cut short leaves the header's field without samples.
	hdr, err := ReadFieldHeader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadFieldPayload(opaque{bytes.NewReader(b[fieldHeaderSize : len(b)-1])}, hdr); err == nil || hdr.U != nil || hdr.V != nil || hdr.W != nil {
		t.Errorf("short payload: err %v, samples kept %v", err, hdr.U != nil)
	}
	if got, err := readField(bytes.NewReader(b)); err != nil || got == nil {
		t.Errorf("the whole file: %v", err)
	}
}

// fieldHeader is a timestep header announcing the given dimensions.
func fieldHeader(ni, nj, nk uint32) []byte {
	b := make([]byte, fieldHeaderSize)
	binary.LittleEndian.PutUint32(b[0:], fieldMagic)
	binary.LittleEndian.PutUint32(b[4:], ni)
	binary.LittleEndian.PutUint32(b[8:], nj)
	binary.LittleEndian.PutUint32(b[12:], nk)
	return b
}

// allocatedBy reports how many bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileHeaderAllocatesNothing: each dimension of a header may
// pass maxDim while their product asks for terabytes; twenty bytes of
// file must not make ReadFieldPayload (or ReadGrid) allocate them.
func TestHostileHeaderAllocatesNothing(t *testing.T) {
	for _, dims := range [][3]uint32{
		{1 << 14, 1 << 14, 1 << 14}, // 2^42 nodes
		{1 << 10, 1 << 10, 1 << 9},  // 2^29: over maxNodes
		{1 << 10, 1 << 9, 1 << 9},   // 2^28: allowed, but the reader holds 20 bytes
		{1 << 15, 2, 2},
	} {
		hdr := fieldHeader(dims[0], dims[1], dims[2])
		var err error
		grew := allocatedBy(func() { _, err = readField(bytes.NewReader(hdr)) })
		if err == nil {
			t.Errorf("%v: a header with no payload read as a field", dims)
		}
		if grew > 1<<20 {
			t.Errorf("%v: refusing it allocated %d bytes", dims, grew)
		}
		binary.LittleEndian.PutUint32(hdr, gridMagic)
		if _, err := ReadGrid(bytes.NewReader(hdr[:16])); err == nil && dims[0] > 1<<10 {
			t.Errorf("%v: read as a grid", dims)
		}
	}
	if err := checkDims(1<<10, 1<<9, 1<<9); err != nil {
		t.Errorf("2^28 nodes refused: %v", err)
	}
	if err := checkDims(1<<10, 1<<9, 1<<9+1); err == nil {
		t.Error("more than 2^28 nodes accepted")
	}
}

// FuzzReadField: whatever the bytes of a timestep file, the read
// store.Disk makes (readStep) returns an error or a field that is
// exactly what those bytes say — writing it back gives the input — and
// allocates in proportion to its input, never to what a header claims.
func FuzzReadField(f *testing.F) {
	var file bytes.Buffer
	if err := WriteField(&file, awkwardField(2, 2, 2)); err != nil {
		f.Fatal(err)
	}
	valid := file.Bytes()
	f.Add(valid)
	for _, at := range []int{0, 4, 8, 12, 16, 17} { // each header field
		for _, v := range []byte{0x00, 0x01, 0x7f, 0xff} {
			b := bytes.Clone(valid)
			b[at] = v
			f.Add(b)
		}
	}
	for _, cut := range []int{0, 3, 19, 20, 21, 20 + 32, 20 + 64, len(valid) - 1} {
		f.Add(bytes.Clone(valid[:cut]))
	}
	f.Add(fieldHeader(1<<14, 1<<14, 1<<14))
	f.Add(fieldHeader(1<<10, 1<<9, 1<<9))
	f.Add(append(bytes.Clone(valid), 0xaa, 0xbb))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Field
		var err error
		grew := allocatedBy(func() { got, err = readStep(data) })
		// The fuzzing engine's own goroutines allocate too: a megabyte
		// of slack, far below what a lying header asks for.
		if limit := uint64(2*len(data)) + 1<<20; grew > limit {
			t.Fatalf("%d bytes of input, %d allocated", len(data), grew)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("error %v with a field", err)
			}
			return
		}
		n := got.NumNodes()
		if checkDims(got.NI, got.NJ, got.NK) != nil || len(got.U) != n || len(got.V) != n || len(got.W) != n ||
			(got.Coords != Physical && got.Coords != GridCoords) {
			t.Fatalf("accepted a %dx%dx%d field, coords %d, with %d/%d/%d samples",
				got.NI, got.NJ, got.NK, got.Coords, len(got.U), len(got.V), len(got.W))
		}
		var back bytes.Buffer
		if err := WriteField(&back, got); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(data)
		want[17], want[18], want[19] = 0, 0, 0 // padding is not kept
		if !bytes.Equal(back.Bytes(), want) {
			t.Fatal("the field read is not the field the bytes hold")
		}
	})
}
