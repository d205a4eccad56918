package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// paxosFrames returns every Paxos frame shape, as the payloads (type
// byte and body) a Conn sends.
func paxosFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, m := range []Message{
		&PaxosPrepare{Round: 3, Proposer: 1, From: 12},
		&PaxosPrepareOK{OK: true, PromisedRound: 3, PromisedProposer: 1, Votes: []PaxosVote{
			{Slot: 12, Round: 2, Proposer: 0, Value: "v12"},
			{Slot: 13, Round: 3, Proposer: 1, Value: ""},
			{Slot: 15, Round: 3, Proposer: 1, Value: "v15"},
		}, More: true},
		&PaxosPrepareOK{OK: true, PromisedRound: 3, PromisedProposer: 1},
		&PaxosPrepareOK{OK: false, PromisedRound: 9, PromisedProposer: 2},
		&PaxosAccept{Round: 3, Proposer: 1, Slot: 12, Value: "v12"},
		&PaxosAcceptOK{OK: true, PromisedRound: 3, PromisedProposer: 1},
	} {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(m); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes()[4:])
	}
	return out
}

// recvPayload decodes one frame carrying payload.
func recvPayload(payload []byte) (Message, error) {
	var buf bytes.Buffer
	buf.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
	buf.Write(payload)
	return NewConn(&buf).Recv()
}

// TestPaxosPrepareOKBoundsVoteCount: a vote count larger than the
// bytes left fails the decode before anything is allocated for it, and
// so does a page whose votes do not ascend by slot or that holds votes
// back without carrying one.
func TestPaxosPrepareOKBoundsVoteCount(t *testing.T) {
	huge := []byte{byte(TPaxosPrepareOK), 1, 2, 2}
	huge = binary.AppendUvarint(huge, 1<<40)
	if _, err := recvPayload(huge); !errors.Is(err, ErrTruncated) {
		t.Fatalf("vote count 1<<40 in a %d-byte frame: %v, want ErrTruncated", len(huge), err)
	}
	for _, m := range []*PaxosPrepareOK{
		{OK: true, Votes: []PaxosVote{{Slot: 2}, {Slot: 2}}},
		{OK: true, Votes: []PaxosVote{{Slot: 2}, {Slot: 1}}},
		{OK: true, More: true},
	} {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := NewConn(&buf).Recv(); !errors.Is(err, errPageOrder) {
			t.Fatalf("%+v decoded with %v, want errPageOrder", m, err)
		}
	}
}

// FuzzPaxosFrames feeds arbitrary payloads to the Paxos decoders, the
// frames a node reads from its peers' acceptors. Whatever decodes
// must re-encode to a frame that decodes to the same message, and a
// prepare reply's votes must ascend by slot.
func FuzzPaxosFrames(f *testing.F) {
	for _, p := range paxosFrames(f) {
		f.Add(p)
		f.Add(p[:len(p)-1]) // truncated
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := recvPayload(payload)
		if err != nil {
			return
		}
		if ok, isOK := m.(*PaxosPrepareOK); isOK {
			for i := 1; i < len(ok.Votes); i++ {
				if ok.Votes[i].Slot <= ok.Votes[i-1].Slot {
					t.Fatalf("votes out of slot order: %+v", ok.Votes)
				}
			}
			if ok.More && len(ok.Votes) == 0 {
				t.Fatal("a page holds votes back without carrying one")
			}
		}
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(m); err != nil {
			t.Fatal(err)
		}
		again, err := NewConn(&buf).Recv()
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed %T: %+v vs %+v", m, again, m)
		}
	})
}
