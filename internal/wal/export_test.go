package wal

import "repro/internal/codec"

// SegName is the segment's file name inside a WAL directory.
const SegName = segName

// Frame is one valid frame of a segment: its kind, the payload's
// leading varint (the version, for record and commit frames) and its
// size on disk, header included.
type Frame struct {
	Kind    byte
	Version int64
	Size    int
}

// Frames parses a segment's valid frames in order, stopping at a torn
// tail.
func Frames(data []byte) []Frame {
	var out []Frame
	for off := 0; ; {
		payload, n := codec.NextFrame(data[off:])
		if payload == nil {
			return out
		}
		d := codec.NewDecoder(payload[1:])
		out = append(out, Frame{Kind: payload[0], Version: d.Varint(), Size: n})
		off += n
	}
}
