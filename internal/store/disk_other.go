//go:build !linux

package store

import (
	"os"

	"repro/internal/field"
)

// readPayload reads sf's samples into f's components in the heap.
func (d *Disk) readPayload(sf *os.File, f *field.Field) error {
	return field.ReadFieldPayload(sf, f)
}
