package network

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrips(t *testing.T) {
	frames := []any{
		Hello{Player: 7, Bits: 3},
		RoundBatch{Batch: 2, Seeds: []uint64{0xdeadbeefcafe}},
		VoteBatch{Player: 7, Batch: 2, Count: 1, Bits: []uint64{1}},
		VerdictBatch{Batch: 2, Count: 1, Bits: []uint64{1}},
		VerdictBatch{Batch: 2, Count: 1, Bits: []uint64{0}},
		Finish{},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		var err error
		switch m := f.(type) {
		case Hello:
			err = WriteHello(&buf, m)
		case RoundBatch:
			err = WriteRoundBatch(&buf, m)
		case VoteBatch:
			err = WriteVoteBatch(&buf, m)
		case VerdictBatch:
			err = WriteVerdictBatch(&buf, m)
		case Finish:
			err = WriteFinish(&buf)
		}
		if err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	for _, want := range frames {
		_, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame = %+v, want %+v", got, want)
		}
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	buf := []byte{0x00, 0x01, 1, 1, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(buf)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFinish(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var header [8]byte
	binary.BigEndian.PutUint16(header[0:2], Magic)
	header[2] = Version
	header[3] = byte(FrameHello)
	binary.BigEndian.PutUint32(header[4:8], MaxFrameSize+1)
	if _, _, err := ReadFrame(bytes.NewReader(header[:])); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Errorf("oversized: %v", err)
	}
}

func TestReadFrameRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{Player: 1, Bits: 2}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:4])); err == nil {
		t.Error("truncated header accepted")
	}
}

// rawFrame is a well-formed header of the given type and payload size
// followed by a zero payload.
func rawFrame(t FrameType, size int) []byte {
	var header [8]byte
	binary.BigEndian.PutUint16(header[0:2], Magic)
	header[2] = Version
	header[3] = byte(t)
	binary.BigEndian.PutUint32(header[4:8], uint32(size))
	return append(header[:], make([]byte, size)...)
}

func TestReadFrameRejectsWrongPayloadSizes(t *testing.T) {
	for _, tt := range []struct {
		t    FrameType
		size int
	}{
		{FrameHello, 4}, {FrameHello, 6}, {FrameFinish, 1}, {FrameRoundBatch, 7}, {FrameVerdictBatch, 9},
	} {
		if _, _, err := ReadFrame(bytes.NewReader(rawFrame(tt.t, tt.size))); err == nil {
			t.Errorf("%v with %d-byte payload accepted", tt.t, tt.size)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(rawFrame(FrameType(99), 0))); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestReadFrameRejectsRetiredTypes(t *testing.T) {
	// Types 2..4 carried the retired one-trial ROUND/VOTE/VERDICT
	// exchange. Their numbers stay reserved and decode as unknown, at
	// every payload size their old encodings used.
	for _, tt := range []struct {
		t    FrameType
		size int
	}{
		{2, 8}, {3, 12}, {4, 1},
	} {
		_, _, err := ReadFrame(bytes.NewReader(rawFrame(tt.t, tt.size)))
		if err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("retired type %d: err = %v, want unknown-frame-type error", uint8(tt.t), err)
		}
		if name := tt.t.String(); !strings.Contains(name, "FrameType(") {
			t.Errorf("retired type %d has name %q", uint8(tt.t), name)
		}
	}
}

func TestReadFrameRejectsMalformedVerdictByte(t *testing.T) {
	// Regression: only the legal verdict encodings may decode. A
	// VERDICT_BATCH bit set above the trial count is a corrupted or
	// malicious frame, not a verdict for a trial that does not exist.
	for _, pad := range []uint64{2, 0x80, 1 << 63} {
		var buf bytes.Buffer
		if err := WriteVerdictBatch(&buf, VerdictBatch{Batch: 1, Count: 1, Bits: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		word := binary.BigEndian.Uint64(raw[len(raw)-8:])
		binary.BigEndian.PutUint64(raw[len(raw)-8:], word|pad)
		if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "VERDICT_BATCH") {
			t.Errorf("VERDICT_BATCH padding %#x: err = %v, want malformed-verdict error", pad, err)
		}
	}
	// The two legal verdicts still decode.
	for _, want := range []uint64{0, 1} {
		var buf bytes.Buffer
		if err := WriteVerdictBatch(&buf, VerdictBatch{Batch: 1, Count: 1, Bits: []uint64{want}}); err != nil {
			t.Fatal(err)
		}
		typ, msg, err := ReadFrame(&buf)
		if err != nil || typ != FrameVerdictBatch || msg.(VerdictBatch).Bits[0] != want {
			t.Errorf("VERDICT_BATCH bit %d: (%v, %v, %v)", want, typ, msg, err)
		}
	}
}

func TestExpectFrameTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRoundBatch(&buf, RoundBatch{Batch: 1, Seeds: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame[VoteBatch](&buf, FrameVoteBatch); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	if err := writeFrame(io.Discard, FrameHello, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameHello.String() != "HELLO" || FrameVerdictBatch.String() != "VERDICT_BATCH" {
		t.Error("frame names wrong")
	}
	if !strings.Contains(FrameType(77).String(), "77") {
		t.Error("unknown frame name wrong")
	}
}

// TestFrameEncodingsGolden pins the bytes of every frame that has both a
// Write* sender and an Append* encoder. Each sender is the encoder plus
// one write, so both must produce exactly these bytes.
func TestFrameEncodingsGolden(t *testing.T) {
	cases := []struct {
		frame any
		hex   string
	}{
		{RoundBatch{Batch: 7, Seeds: []uint64{1, 0xdeadbeefcafef00d}},
			"d07a01060000001800000007000000020000000000000001deadbeefcafef00d"},
		{VerdictBatch{Batch: 9, Count: 70, Bits: []uint64{0x8000000000000001, 0x2a}},
			"d07a01080000001800000009000000468000000000000001000000000000002a"},
		{AggSum{Agg: 2, Batch: 9, Count: 3, Bits: 2, Planes: 2, Present: 5, Sums: []uint64{5, 3}},
			"d07a010b0000002200000002000000090000000302020000000500000000000000050000000000000003"},
		{AggPlanes{Agg: 1, Batch: 9, Count: 3, Bits: 2, Members: 3, Present: 2, Mask: []uint64{0b101}, Planes: []uint64{1, 2, 3, 4}},
			"d07a010c0000003d00000001000000090000000302000000030000000200000000000000050000000000000001000000000000000200000000000000030000000000000004"},
		{AggVerdict{Batch: 9, Count: 3, Present: []uint32{4, 0, 2}, Bits: []uint64{0b110}},
			"d07a010d000000200000000900000003000000030000000400000000000000020000000000000006"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		var enc []byte
		var werr, aerr error
		switch f := tc.frame.(type) {
		case RoundBatch:
			werr = WriteRoundBatch(&buf, f)
			enc, aerr = AppendRoundBatch(nil, f)
		case VerdictBatch:
			werr = WriteVerdictBatch(&buf, f)
			enc, aerr = AppendVerdictBatch(nil, f)
		case AggSum:
			werr = WriteAggSum(&buf, f)
			enc, aerr = AppendAggSum(nil, f)
		case AggPlanes:
			werr = WriteAggPlanes(&buf, f)
			enc, aerr = AppendAggPlanes(nil, f)
		case AggVerdict:
			werr = WriteAggVerdict(&buf, f)
			enc, aerr = AppendAggVerdict(nil, f)
		}
		if werr != nil || aerr != nil {
			t.Fatalf("%T: write: %v, append: %v", tc.frame, werr, aerr)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.hex {
			t.Errorf("%T: Write* encodes %s, want %s", tc.frame, got, tc.hex)
		}
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%T: Append* encodes %s, want %s", tc.frame, got, tc.hex)
		}
	}
}
