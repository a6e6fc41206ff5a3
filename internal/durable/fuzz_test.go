package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanFrames: recovery reads every WAL segment and snapshot through
// scanFrames, so no file content may panic it, and the prefix it
// reports valid must be exactly the frames it returned: re-framing the
// payloads in order reproduces data[:valid] byte for byte.
//
//	go test -run=NONE -fuzz=FuzzScanFrames -fuzztime=10s ./internal/durable
func FuzzScanFrames(f *testing.F) {
	one := encodeFrame([]byte("record-0001"))
	flipped := append([]byte(nil), one...)
	flipped[4] ^= 0xff
	f.Add([]byte{})
	f.Add(one)
	f.Add(append(append([]byte(nil), one...), encodeFrame([]byte("torn record"))[:frameHeader+3]...))
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-00000001.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payloads, valid, total, err := scanFrames(path)
		if err != nil {
			t.Fatal(err)
		}
		if total != int64(len(data)) || valid < 0 || valid > total {
			t.Fatalf("valid %d, total %d for %d bytes", valid, total, len(data))
		}
		var reframed []byte
		for _, p := range payloads {
			reframed = append(reframed, encodeFrame(p)...)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatalf("re-framed payloads (%d bytes) differ from the valid prefix (%d bytes)", len(reframed), valid)
		}
	})
}
