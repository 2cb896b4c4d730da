package store

import (
	"encoding/binary"
	"os"
	"runtime"
	"syscall"
	"unsafe"

	"repro/internal/field"
)

// hostLittleEndian reports whether a float32 lies in memory as the
// timestep file stores it (field's binary formats are little-endian),
// so the file's bytes can be the field's samples.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readPayload points f's components at sf's samples: a read-only
// private mapping of the whole file, pre-faulted here so the load, not
// its first reader, pays for the I/O (Fig. 8). The mapping is released
// by a finalizer on f. A big-endian host reads the samples into the
// heap.
func (d *Disk) readPayload(sf *os.File, f *field.Field) error {
	if !hostLittleEndian {
		return field.ReadFieldPayload(sf, f)
	}
	size := f.FileSize()
	data, err := syscall.Mmap(int(sf.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return err
	}
	n := f.NumNodes()
	samples := unsafe.Slice((*float32)(unsafe.Pointer(&data[size-f.SizeBytes()])), 3*n)
	f.U, f.V, f.W = samples[:n:n], samples[n:2*n:2*n], samples[2*n:]
	d.mappedSteps.Add(1)
	d.mappedBytes.Add(size)
	runtime.SetFinalizer(f, func(*field.Field) {
		_ = syscall.Munmap(data) // fails only for a slice Mmap did not return
		d.mappedSteps.Add(-1)
		d.mappedBytes.Add(-size)
	})
	return nil
}
