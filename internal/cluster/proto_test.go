package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// TestReadExecFrameTruncatedPayloadAllocatesLittle sends a frame that
// declares a 4 GiB inline payload but carries 16 bytes: the decoder must
// fail, and its buffer must grow with the bytes received, not with the
// declared length.
func TestReadExecFrameTruncatedPayloadAllocatesLittle(t *testing.T) {
	ref := shardRef{ShardKey: ShardKey{Name: "a"}}
	hdr := execHeader{BAtomic: 8, ARefs: []shardRef{ref}, BRefs: []shardRef{ref}, Inline: []shardRef{ref}}
	hj, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(hj)))
	frame = append(frame, hj...)
	frame = binary.LittleEndian.AppendUint64(frame, 4<<30)
	frame = append(frame, make([]byte, 16)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = readExecFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readExecFrame accepted a payload 16 bytes into a declared 4 GiB")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("decoding a 16-byte payload allocated %d bytes", grew)
	}
}

// fuzzFrame encodes a valid exec frame carrying n inline shard payloads.
func fuzzFrame(f *testing.F, n int) []byte {
	f.Helper()
	cfg := testCfg()
	rng := rand.New(rand.NewSource(int64(90 + n)))
	hdr := execHeader{
		BAtomic: cfg.BAtomic, WriteThreshold: 0.5, SpGEMM: 2,
		ARefs: []shardRef{{ShardKey: ShardKey{Name: "a", Gen: 3}, CRC: 1, Bytes: 2}},
		BRefs: []shardRef{{ShardKey: ShardKey{Name: "b", Gen: 4, Shard: 1}, CRC: 3, Bytes: 4, TileIdx: []int{0, 2}}},
	}
	var inline [][]byte
	for i := 0; i < n; i++ {
		m, _, err := core.Partition(mat.RandomCOO(rng, 24, 16, 60), cfg)
		if err != nil {
			f.Fatal(err)
		}
		data, err := encodeMatrix(m)
		if err != nil {
			f.Fatal(err)
		}
		ref := shardRef{ShardKey: ShardKey{Shard: i}, CRC: core.ChecksumBytes(data), Bytes: int64(len(data))}
		hdr.Inline = append(hdr.Inline, ref)
		hdr.ARefs = append(hdr.ARefs, ref)
		inline = append(inline, data)
	}
	r, _, err := execFrameReader(hdr, inline)
	if err != nil {
		f.Fatal(err)
	}
	frame, err := io.ReadAll(r)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}

// FuzzReadExecFrame feeds arbitrary bytes to the exec frame decoder: it
// must never panic, and every frame it accepts must re-encode to the same
// header and payloads.
func FuzzReadExecFrame(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		f.Add(fuzzFrame(f, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, inline, err := readExecFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, _, err := execFrameReader(hdr, inline)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		hdr2, inline2, err := readExecFrame(r)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		j1, err1 := json.Marshal(hdr)
		j2, err2 := json.Marshal(hdr2)
		if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
			t.Fatalf("header changed across re-encoding:\n%s\n%s", j1, j2)
		}
		if len(inline2) != len(inline) {
			t.Fatalf("%d payloads re-decoded as %d", len(inline), len(inline2))
		}
		for i := range inline {
			if !bytes.Equal(inline[i], inline2[i]) {
				t.Fatalf("payload %d changed across re-encoding", i)
			}
		}
	})
}

// FuzzDecodeFailure feeds arbitrary status codes and bodies to the worker
// failure decoder: it must never panic and always return an error; a 409
// whose body is a well-formed failure listing shards must come back as the
// cache-miss signal with exactly those keys, and any other body must be
// classified from its well-formed fields only.
func FuzzDecodeFailure(f *testing.F) {
	f.Add(http.StatusConflict, []byte(`{"error":"cluster: 2 referenced shards not in store","missing_shards":[{"name":"a","gen":3,"shard":0},{"name":"","gen":0,"shard":4}]}`))
	f.Add(http.StatusConflict, []byte(`{"missing_shards":[{"name":"a"},{"gen":"x"}]}`))
	f.Add(http.StatusConflict, []byte(`{"missing_shards":[]}`))
	f.Add(http.StatusUnprocessableEntity, []byte(`{"error":"bad payload","corrupt":true}`))
	f.Add(http.StatusServiceUnavailable, []byte(`{"error":"busy","transient":true}`))
	f.Add(http.StatusInternalServerError, []byte("plain text\n"))
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		resp := &http.Response{StatusCode: status, Body: io.NopCloser(bytes.NewReader(body))}
		err := decodeFailure("w", resp)
		if err == nil || err.Error() == "" {
			t.Fatalf("decodeFailure(%d, %q) = %v, want an error", status, body, err)
		}
		if len(body) > 1<<20 {
			body = body[:1<<20]
		}
		var want rpcFailure
		wellFormed := json.Unmarshal(body, &want) == nil
		var mse *missingShardsError
		if wellFormed && status == http.StatusConflict && len(want.MissingShards) > 0 {
			if !errors.As(err, &mse) || !reflect.DeepEqual(mse.keys, want.MissingShards) {
				t.Fatalf("409 listing %v decoded as %v", want.MissingShards, err)
			}
			return
		}
		if errors.As(err, &mse) {
			t.Fatalf("decodeFailure(%d, %q) reported missing shards %v", status, body, mse.keys)
		}
		if corrupt := wellFormed && want.Corrupt; corrupt != errors.Is(err, core.ErrChecksum) {
			t.Fatalf("decodeFailure(%d, %q) = %v, corrupt marker %v", status, body, err, corrupt)
		}
		if wellFormed && want.Corrupt {
			return
		}
		transient := wellFormed && want.Transient ||
			status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
		if isTransient(err) != transient {
			t.Fatalf("decodeFailure(%d, %q) = %v, transient %v", status, body, err, transient)
		}
	})
}
