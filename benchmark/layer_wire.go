package main

import (
	"lambdastore/internal/core"
)

// wireReps is how many codec round trips one wire.codec span covers: a
// single one is shorter than reading the clock twice.
const wireReps = 32

// wireCodec encodes and decodes the op's argument vector, the part of the
// invoke frame whose size the application controls.
func wireCodec(args [][]byte) error {
	for i := 0; i < wireReps; i++ {
		if _, err := core.DecodeArgs(core.EncodeArgs(args)); err != nil {
			return err
		}
	}
	return nil
}
