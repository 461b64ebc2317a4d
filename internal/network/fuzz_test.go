package network

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFrame hammers the wire decoder with arbitrary bytes: it must
// never panic, and any frame it does accept must re-encode to an
// equivalent frame (round-trip coherence). Run with `go test -fuzz
// FuzzFrame ./internal/network` for continuous fuzzing; the seed
// corpus runs as part of the normal test suite, and CI runs a short
// -fuzztime smoke on every push.
func FuzzFrame(f *testing.F) {
	// Seed with every valid frame type plus structural mutations. Types
	// 2..4 are the retired ROUND/VOTE/VERDICT frames: their old valid
	// encodings must now be rejected as unknown types.
	var hello, finish bytes.Buffer
	_ = WriteHello(&hello, Hello{Player: 3, Bits: 1})
	_ = WriteFinish(&finish)
	f.Add(hello.Bytes())
	f.Add([]byte{0xD0, 0x7A, 1, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce})   // retired ROUND, formerly valid
	f.Add([]byte{0xD0, 0x7A, 1, 3, 0, 0, 0, 12, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 99}) // retired VOTE, formerly valid
	f.Add([]byte{0xD0, 0x7A, 1, 4, 0, 0, 0, 1, 1})                                    // retired VERDICT, formerly valid
	f.Add(finish.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0x7A, 1, 14, 0, 0, 0, 0})               // unknown type
	f.Add([]byte{0x00, 0x00, 1, 1, 0, 0, 0, 0})                // bad magic
	f.Add([]byte{0xD0, 0x7A, 9, 1, 0, 0, 0, 0})                // bad version
	f.Add([]byte{0xD0, 0x7A, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF})    // huge length
	f.Add([]byte{0xD0, 0x7A, 1, 2, 0, 0, 0, 4, 1, 2, 3, 4})    // retired ROUND, short payload
	f.Add([]byte{0xD0, 0x7A, 1, 3, 0, 0, 0, 5, 1, 2, 3, 4, 5}) // retired VOTE, short payload
	f.Add([]byte{0xD0, 0x7A, 1, 4, 0, 0, 0, 1, 2})             // retired VERDICT, byte other than 0/1
	f.Add([]byte{0xD0, 0x7A, 1, 4, 0, 0, 0, 1, 0xFF})          // retired VERDICT, byte 0xFF
	f.Add([]byte{0xD0, 0x7A, 1, 5, 0, 0, 0, 1, 0})             // FINISH with a payload byte

	// Valid batch frames, including a partial final word and a bitset
	// spanning two words.
	var roundBatch, voteBatch, verdictBatch bytes.Buffer
	_ = WriteRoundBatch(&roundBatch, RoundBatch{Batch: 7, Seeds: []uint64{1, 0xfeedface, 3}})
	_ = WriteVoteBatch(&voteBatch, VoteBatch{Player: 3, Batch: 7, Count: 3, Bits: []uint64{0b101}})
	_ = WriteVerdictBatch(&verdictBatch, VerdictBatch{Batch: 7, Count: 65, Bits: []uint64{^uint64(0), 1}})
	f.Add(roundBatch.Bytes())
	f.Add(voteBatch.Bytes())
	f.Add(verdictBatch.Bytes())

	// Malformed batch frames the decoder must reject (never panic on):
	// length prefixes disagreeing with the count field, counts out of
	// range, wrong bitset word counts, and non-zero padding bits.
	f.Add([]byte{0xD0, 0x7A, 1, 6, 0, 0, 0, 8,
		0, 0, 0, 7, 0, 0, 0, 5}) // ROUND_BATCH count 5, zero seeds
	f.Add([]byte{0xD0, 0x7A, 1, 6, 0, 0, 0, 8,
		0, 0, 0, 7, 0, 0, 0, 0}) // ROUND_BATCH count 0
	f.Add([]byte{0xD0, 0x7A, 1, 6, 0, 0, 0, 12,
		0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}) // ROUND_BATCH huge count
	f.Add([]byte{0xD0, 0x7A, 1, 7, 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // VOTE_BATCH count 1 with padding bit 1 set
	f.Add([]byte{0xD0, 0x7A, 1, 7, 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0}) // VOTE_BATCH count 0
	f.Add([]byte{0xD0, 0x7A, 1, 7, 0, 0, 0, 12,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 65}) // VOTE_BATCH count 65, zero words
	f.Add([]byte{0xD0, 0x7A, 1, 8, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0}) // VERDICT_BATCH count 1 with two words
	f.Add([]byte{0xD0, 0x7A, 1, 8, 0xFF, 0xFF, 0xFF, 0xFF}) // VERDICT_BATCH huge length prefix

	// Valid r-bit vote batches across the width range: single plane,
	// two planes, and wide frames whose trial lanes span plane strides.
	for _, tc := range []struct {
		bits  uint8
		count uint32
	}{{1, 3}, {2, 7}, {7, 65}, {8, 64}} {
		planes := make([]uint64, int(tc.bits)*batchWords(int(tc.count)))
		for b := 0; b < int(tc.bits); b++ {
			for j := uint32(0); j < tc.count; j++ {
				if (uint32(b)+j)%3 == 0 {
					planes[b*batchWords(int(tc.count))+int(j)/64] |= 1 << (j % 64)
				}
			}
		}
		var buf bytes.Buffer
		_ = WriteVoteBatchR(&buf, VoteBatchR{Player: 3, Batch: 7, Count: tc.count, Bits: tc.bits, Planes: planes})
		f.Add(buf.Bytes())
	}

	// Malformed VOTE_BATCH_R frames the decoder must reject: width out
	// of range, a stride disagreeing with the announced width, and
	// nonzero padding past the trial count.
	f.Add([]byte{0xD0, 0x7A, 1, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 0}) // bits 0
	f.Add([]byte{0xD0, 0x7A, 1, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 65}) // bits 65
	f.Add([]byte{0xD0, 0x7A, 1, 9, 0, 0, 0, 21,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 2,
		0, 0, 0, 0, 0, 0, 0, 1}) // bits 2 but a 1-plane stride
	f.Add([]byte{0xD0, 0x7A, 1, 9, 0, 0, 0, 29,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 2,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // count 1 with padding bit set in plane 1
	f.Add([]byte{0xD0, 0x7A, 1, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0, 1}) // count 0

	// Valid aggregator frames: a handshake with a partially-present
	// shard, a reduced sum batch with a partial final word, and a
	// forwarded plane batch with an absent member in the mask — plus the
	// degenerate all-absent plane frame.
	var aggHello, aggSum, aggPlanes, aggEmpty bytes.Buffer
	_ = WriteAggHello(&aggHello, AggHello{Agg: 1, Bits: 3, Present: 2, Members: []uint32{2, 5, 9}})
	_ = WriteAggSum(&aggSum, AggSum{Agg: 1, Batch: 7, Count: 65, Bits: 2, Planes: 3, Present: 4,
		Sums: []uint64{0xAAAA, 1, 0x5555, 0, 0xF0F0, 1}})
	_ = WriteAggPlanes(&aggPlanes, AggPlanes{Agg: 1, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 2,
		Mask: []uint64{0b101}, Planes: []uint64{0b101, 0b011, 0b110, 0b001}})
	_ = WriteAggPlanes(&aggEmpty, AggPlanes{Agg: 2, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 0,
		Mask: []uint64{0}})
	f.Add(aggHello.Bytes())
	f.Add(aggSum.Bytes())
	f.Add(aggPlanes.Bytes())
	f.Add(aggEmpty.Bytes())

	// Valid downstream verdict fan-out frames: a multi-shard accounting
	// vector with an absent shard, and a bitset spanning two words.
	var aggVerdict, aggVerdictWide bytes.Buffer
	_ = WriteAggVerdict(&aggVerdict, AggVerdict{Batch: 7, Count: 3, Present: []uint32{2, 0, 5}, Bits: []uint64{0b101}})
	_ = WriteAggVerdict(&aggVerdictWide, AggVerdict{Batch: 7, Count: 65, Present: []uint32{9}, Bits: []uint64{^uint64(0), 1}})
	f.Add(aggVerdict.Bytes())
	f.Add(aggVerdictWide.Bytes())

	// Malformed aggregator frames the decoder must reject: duplicate
	// members, a present count exceeding the shard, counter strides
	// disagreeing with the plane count, non-zero padding above the trial
	// count or the member count, and a present count disagreeing with
	// the mask popcount.
	f.Add([]byte{0xD0, 0x7A, 1, 10, 0, 0, 0, 21,
		0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 5, 0, 0, 0, 5}) // AGG_HELLO duplicate member 5
	f.Add([]byte{0xD0, 0x7A, 1, 10, 0, 0, 0, 21,
		0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 5, 0, 0, 0, 3}) // AGG_HELLO members not ascending
	f.Add([]byte{0xD0, 0x7A, 1, 10, 0, 0, 0, 17,
		0, 0, 0, 1, 1, 0, 0, 0, 3, 0, 0, 0, 1,
		0, 0, 0, 0}) // AGG_HELLO 3 present of 1 member
	f.Add([]byte{0xD0, 0x7A, 1, 11, 0, 0, 0, 26,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 2,
		0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0}) // AGG_SUM 2 planes, 1 sum word
	f.Add([]byte{0xD0, 0x7A, 1, 11, 0, 0, 0, 26,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 1,
		0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2}) // AGG_SUM padding bit above trial 0
	f.Add([]byte{0xD0, 0x7A, 1, 11, 0, 0, 0, 18,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 0,
		0, 0, 0, 4}) // AGG_SUM zero planes
	f.Add([]byte{0xD0, 0x7A, 1, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 2, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1}) // AGG_PLANES present 2, mask popcount 1
	f.Add([]byte{0xD0, 0x7A, 1, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 1}) // AGG_PLANES mask bit above the only member
	f.Add([]byte{0xD0, 0x7A, 1, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // AGG_PLANES padding bit above trial 0

	// Malformed AGG_VERDICT frames the decoder must reject: an empty
	// shard accounting vector, a bitset stride disagreeing with the trial
	// count, non-zero padding above the count, and a present echo larger
	// than any shard can hold.
	f.Add([]byte{0xD0, 0x7A, 1, 13, 0, 0, 0, 12,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 0}) // AGG_VERDICT zero shards
	f.Add([]byte{0xD0, 0x7A, 1, 13, 0, 0, 0, 32,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0}) // AGG_VERDICT count 1 with two words
	f.Add([]byte{0xD0, 0x7A, 1, 13, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // AGG_VERDICT padding bit above trial 0
	f.Add([]byte{0xD0, 0x7A, 1, 13, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0, 1}) // AGG_VERDICT present over the shard cap
	f.Add([]byte{0xD0, 0x7A, 1, 13, 0xFF, 0xFF, 0xFF, 0xFF}) // AGG_VERDICT huge length prefix

	// Long frames that fill every slice of a reused reader's scratch —
	// seeds, bitsets, planes, masks, member and present-count lists — so
	// a frame decoded after them shows any stale-scratch bug (a short
	// frame after a long one seeing the long one's tail).
	long := longFrames(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		typ, msg, err := ReadFrame(in)
		// The same decoder through a reused reader that has just decoded
		// every long frame must agree with ReadFrame, error text included.
		fr := new(frameReader)
		for _, lf := range long {
			if _, err := decodeFrame(bytes.NewReader(lf), fr); err != nil {
				t.Fatalf("long frame: %v", err)
			}
		}
		rtyp, rerr := decodeFrame(bytes.NewReader(data), fr)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("reused reader error %v, ReadFrame error %v", rerr, err)
		}
		if err != nil {
			return // rejects are fine; panics are not
		}
		if rtyp != typ || !reflect.DeepEqual(fr.value(rtyp), msg) {
			t.Fatalf("reused reader decoded (%v, %+v), ReadFrame (%v, %+v)", rtyp, fr.value(rtyp), typ, msg)
		}
		// Consecutive frames on one stream through one reader: the
		// accepted frame between long frames, twice over.
		frame := data[:len(data)-in.Len()]
		var stream []byte
		for range 2 {
			for _, lf := range long {
				stream = append(stream, lf...)
			}
			stream = append(stream, frame...)
		}
		sr, fr := bytes.NewReader(stream), new(frameReader)
		for range 2 {
			for range long {
				if _, err := decodeFrame(sr, fr); err != nil {
					t.Fatalf("long frame in stream: %v", err)
				}
			}
			styp, err := decodeFrame(sr, fr)
			if err != nil {
				t.Fatalf("accepted frame fails in a stream: %v", err)
			}
			if styp != typ || !reflect.DeepEqual(fr.value(styp), msg) {
				t.Fatalf("stream decoded (%v, %+v), ReadFrame (%v, %+v)", styp, fr.value(styp), typ, msg)
			}
		}
		// Accepted frames must round-trip.
		var buf bytes.Buffer
		switch m := msg.(type) {
		case Hello:
			if err := WriteHello(&buf, m); err != nil {
				t.Fatalf("re-encode hello: %v", err)
			}
		case Finish:
			if err := WriteFinish(&buf); err != nil {
				t.Fatalf("re-encode finish: %v", err)
			}
		case RoundBatch:
			if len(m.Seeds) == 0 {
				t.Fatalf("decoder accepted empty ROUND_BATCH: %+v", m)
			}
			if err := WriteRoundBatch(&buf, m); err != nil {
				t.Fatalf("re-encode round batch: %v", err)
			}
		case VoteBatch:
			if err := checkBatchBits(FrameVoteBatch, int(m.Count), m.Bits); err != nil {
				t.Fatalf("decoder accepted invalid VOTE_BATCH bitset: %v", err)
			}
			if err := WriteVoteBatch(&buf, m); err != nil {
				t.Fatalf("re-encode vote batch: %v", err)
			}
		case VoteBatchR:
			if err := checkBatchPlanes(FrameVoteBatchR, int(m.Count), int(m.Bits), m.Planes); err != nil {
				t.Fatalf("decoder accepted invalid VOTE_BATCH_R planes: %v", err)
			}
			if err := WriteVoteBatchR(&buf, m); err != nil {
				t.Fatalf("re-encode r-bit vote batch: %v", err)
			}
		case AggHello:
			if err := checkAggHello(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_HELLO: %v", err)
			}
			if err := WriteAggHello(&buf, m); err != nil {
				t.Fatalf("re-encode agg hello: %v", err)
			}
		case AggSum:
			if err := checkAggSum(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_SUM: %v", err)
			}
			if err := WriteAggSum(&buf, m); err != nil {
				t.Fatalf("re-encode agg sum: %v", err)
			}
		case AggPlanes:
			if err := checkAggPlanes(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_PLANES: %v", err)
			}
			if err := WriteAggPlanes(&buf, m); err != nil {
				t.Fatalf("re-encode agg planes: %v", err)
			}
		case AggVerdict:
			if err := checkAggVerdict(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_VERDICT: %v", err)
			}
			if err := WriteAggVerdict(&buf, m); err != nil {
				t.Fatalf("re-encode agg verdict: %v", err)
			}
		case VerdictBatch:
			if err := checkBatchBits(FrameVerdictBatch, int(m.Count), m.Bits); err != nil {
				t.Fatalf("decoder accepted invalid VERDICT_BATCH bitset: %v", err)
			}
			if err := WriteVerdictBatch(&buf, m); err != nil {
				t.Fatalf("re-encode verdict batch: %v", err)
			}
		default:
			t.Fatalf("decoded unknown type %T", msg)
		}
		typ2, msg2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		// Batch frames hold bitset slices, so structural equality rather
		// than ==.
		if typ2 != typ || !reflect.DeepEqual(msg2, msg) {
			t.Fatalf("round trip changed frame: (%v, %+v) -> (%v, %+v)", typ, msg, typ2, msg2)
		}
	})
}

// longFrames encodes one large valid frame of every type that carries
// slices, each filled with set bits wherever the layout allows.
func longFrames(f *testing.F) [][]byte {
	f.Helper()
	const count = MaxBatchTrials
	words := batchWords(count)
	ones := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = ^uint64(0)
		}
		return w
	}
	seeds := ones(count)
	members := make([]uint32, 300)
	for i := range members {
		members[i] = uint32(2*i + 1)
	}
	present := make([]uint32, 200)
	for i := range present {
		present[i] = 7
	}
	var out [][]byte
	add := func(frame []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, frame)
	}
	add(AppendRoundBatch(nil, RoundBatch{Batch: 9, Seeds: seeds}))
	add(AppendVoteBatch(nil, VoteBatch{Player: 9, Batch: 9, Count: count, Bits: ones(words)}))
	add(AppendVerdictBatch(nil, VerdictBatch{Batch: 9, Count: count, Bits: ones(words)}))
	add(AppendVoteBatchR(nil, VoteBatchR{Player: 9, Batch: 9, Count: count, Bits: 8, Planes: ones(8 * words)}))
	add(AppendAggSum(nil, AggSum{Agg: 9, Batch: 9, Count: count, Bits: 8, Planes: 16, Present: 100, Sums: ones(16 * words)}))
	add(AppendAggPlanes(nil, AggPlanes{Agg: 9, Batch: 9, Count: count, Bits: 4, Members: 192, Present: 192,
		Mask: ones(3), Planes: ones(192 * 4 * words)}))
	add(AppendAggVerdict(nil, AggVerdict{Batch: 9, Count: count, Present: present, Bits: ones(words)}))
	var hello bytes.Buffer
	if err := WriteAggHello(&hello, AggHello{Agg: 9, Bits: 8, Present: 300, Members: members}); err != nil {
		f.Fatal(err)
	}
	out = append(out, hello.Bytes())
	return out
}
