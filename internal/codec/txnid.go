package codec

import (
	"encoding/binary"
	"strconv"
)

// TxnID names one cross-shard (2PC) transaction. The router mints it
// from its epoch (the wall clock when it was built) and an atomic
// sequence, so ids are unique across router restarts, which presumed
// abort requires: a recycled id could collide with a retired decision.
// It is a comparable value: map keys, frames and wire messages carry
// it without a string or an allocation. The zero TxnID names no
// transaction.
type TxnID struct {
	Epoch, Seq int64
}

// IsZero reports whether id is the zero TxnID.
func (id TxnID) IsZero() bool { return id == TxnID{} }

// String renders id for errors and logs, as x<epoch in hex>-<seq>.
func (id TxnID) String() string {
	b := make([]byte, 0, 32)
	b = append(b, 'x')
	b = strconv.AppendInt(b, id.Epoch, 16)
	b = append(b, '-')
	return string(strconv.AppendInt(b, id.Seq, 10))
}

// AppendTxnID encodes id as two varints, epoch then sequence.
func AppendTxnID(b []byte, id TxnID) []byte {
	b = binary.AppendVarint(b, id.Epoch)
	return binary.AppendVarint(b, id.Seq)
}

// AppendTxnIDs encodes a count, then each id.
func AppendTxnIDs(b []byte, ids []TxnID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendTxnID(b, id)
	}
	return b
}

// TxnID decodes an id AppendTxnID encoded.
func (d *Decoder) TxnID() TxnID {
	epoch := d.Varint()
	return TxnID{Epoch: epoch, Seq: d.Varint()}
}

// TxnIDs decodes a list AppendTxnIDs encoded into dst[:0], so a
// reused destination decodes without allocating once it has grown.
func (d *Decoder) TxnIDs(dst []TxnID) []TxnID {
	n := d.Count(2) // two one-byte varints at least
	dst = dst[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		dst = append(dst, d.TxnID())
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}
