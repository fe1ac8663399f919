package farm_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/tensor"
)

// frameHeader is the result frame's fixed header: magic, codec version and
// payload length (see codec.go).
const frameHeader = 4 + 4 + 8

// wrapPayload frames payload with a valid header and CRC, so a fuzzed
// payload reaches the structure checks that sit behind the checksum.
func wrapPayload(payload []byte) []byte {
	b := append([]byte("BFRS"), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(b[4:], farm.CodecVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// FuzzDecodeResult fuzzes the result-frame decoder, whose inputs are a PUT
// body from a peer's socket and a file from the disk tier. Raw frames
// exercise the framing checks; wrapped payloads get a valid header and CRC
// so mutations reach the stats and tensor structure behind the checksum.
// The decoder must never panic, must accept only frames it would encode
// byte for byte, and must never decode more elements than the frame could
// carry at 4 bytes each.
//
//	go test -run '^$' -fuzz FuzzDecodeResult -fuzztime 30s ./internal/farm/
func FuzzDecodeResult(f *testing.F) {
	results := farmtest.RunFresh(f, farmtest.Jobs())
	results = append(results, farm.Result{Out: tensor.FromData(nil, 2, 0, 3)})
	for _, res := range results {
		frame := farm.EncodeResult(res)
		f.Add(frame, false)
		f.Add(frame[frameHeader:len(frame)-4], true)
	}
	f.Fuzz(func(t *testing.T, b []byte, wrap bool) {
		if wrap {
			b = wrapPayload(b)
		}
		res, err := farm.DecodeResult(b)
		if err != nil {
			return
		}
		if again := farm.EncodeResult(res); !bytes.Equal(again, b) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, b)
		}
		if res.Out != nil && res.Out.Size() > len(b)/4 {
			t.Fatalf("decoded %d elements from a %d-byte frame", res.Out.Size(), len(b))
		}
	})
}
