package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"atmatrix/internal/core"
)

// The exec RPC body is a single frame:
//
//	uint32 little-endian header length
//	JSON execHeader
//	for each header Inline entry, in order:
//	    int64 payload length, then that many bytes of shard .atm stream
//
// Both operands always resolve through the header's shard references.
// References the worker already holds (replicated cataloged shards) travel
// as (name, generation, shard) keys plus a CRC fingerprint instead of
// megabytes of tiles; every other referenced shard rides inline. Inline
// payloads are either cache fills of cataloged shards the worker is
// missing (a 409 told the coordinator so), which the worker stores before
// execution, or the shards of a per-multiply map (generation
// perMultiplyGen), which it decodes for this request only. Every payload
// is checked against its declared CRC-32C, and the .atm streams carry
// their own CRC-32C footers, so a flipped bit anywhere in an operand
// payload fails with core.ErrChecksum (or a typed core.TileError naming
// the damaged tile) rather than producing a silently wrong shard product.
//
// A successful response is the product streamed as length-prefixed
// per-tile-row .atm frames (core.WriteTileRowFrames) — the coordinator
// merges each frame as it arrives under its bounded reassembly window
// instead of buffering whole shard products. Failures are JSON {"error",
// "corrupt", "transient", "missing_shards"} with a matching status code.

// ShardKey names one shard: a matrix name, the shard-map generation it was
// cut under, and the shard index. Workers key their stores by it; exec
// references and inventory reports carry it.
type ShardKey struct {
	Name  string `json:"name"`
	Gen   int64  `json:"gen"`
	Shard int    `json:"shard"`
}

func (k ShardKey) String() string {
	return fmt.Sprintf("%s@%d/%d", k.Name, k.Gen, k.Shard)
}

// perMultiplyGen is the generation of per-multiply shard maps: an operand
// without a recorded catalog map is cut afresh for each multiply under
// it. catalog.NextGeneration never hands it out, so per-multiply keys
// never collide with cataloged ones, and workers never store them.
const perMultiplyGen = 0

// shardRef is a shard reference in an exec header: the key to look up plus
// the CRC/size fingerprint the stored bytes must match — a worker holding
// stale or damaged bytes under the right key reports the shard missing
// rather than computing on them.
type shardRef struct {
	ShardKey
	CRC   uint32 `json:"crc32c"`
	Bytes int64  `json:"bytes"`
	// TileIdx maps the shard's tiles (in shard order) to their indices in
	// the full matrix's canonical tile order. The partitioner emits tiles
	// in recursion order — not reconstructible from tile coordinates alone
	// — and the operator accumulates contributions in operand tile order,
	// so a worker reassembling a matrix from several shards needs these to
	// splice the tiles back bit-identically. A tile spanning a band cut
	// rides in several shards under the SAME index, making dedup exact.
	// Empty for single-shard operands, whose order is trivially preserved.
	TileIdx []int `json:"tile_idx,omitempty"`
}

// execHeader carries the coordinator's global plan parameters — the block
// granularity the shard streams were partitioned at and the globally
// derived write threshold (a worker deriving its own water level from a
// shard-local density map would classify result tiles differently than a
// local run, breaking byte-identity) — plus the operand shard references.
type execHeader struct {
	BAtomic        int     `json:"b_atomic"`
	WriteThreshold float64 `json:"write_threshold"`
	SpGEMM         int     `json:"spgemm"`
	// ARefs/BRefs resolve the corresponding operand from the frame's
	// inline payloads or the worker's shard store. Multiple refs assemble
	// into one operand (all of B's shards for a row-shard task).
	ARefs []shardRef `json:"a_refs,omitempty"`
	BRefs []shardRef `json:"b_refs,omitempty"`
	// Inline declares shard payloads appended to the frame, in order.
	Inline []shardRef `json:"inline,omitempty"`
}

const (
	maxHeaderBytes  = 1 << 20
	maxOperandBytes = int64(1) << 33
)

// encodeMatrix serializes a matrix to an in-memory .atm stream, so the
// coordinator pays the encoding once per shard however many retries,
// hedges and re-routes ship it.
func encodeMatrix(m *core.ATMatrix) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// execFrameReader returns a reader over the full frame and its length.
// The inline payloads must match hdr.Inline one-to-one.
func execFrameReader(hdr execHeader, inline [][]byte) (io.Reader, int64, error) {
	if len(inline) != len(hdr.Inline) {
		return nil, 0, fmt.Errorf("cluster: %d inline payloads for %d declared refs", len(inline), len(hdr.Inline))
	}
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: encoding exec header: %w", err)
	}
	if len(hj) > maxHeaderBytes {
		return nil, 0, fmt.Errorf("cluster: exec header %d bytes exceeds limit %d", len(hj), maxHeaderBytes)
	}
	pre := make([]byte, 0, 4+len(hj))
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(hj)))
	pre = append(pre, hj...)
	parts := []io.Reader{bytes.NewReader(pre)}
	total := int64(len(pre))
	for _, b := range inline {
		ln := binary.LittleEndian.AppendUint64(nil, uint64(len(b)))
		parts = append(parts, bytes.NewReader(ln), bytes.NewReader(b))
		total += int64(len(ln) + len(b))
	}
	return io.MultiReader(parts...), total, nil
}

// readExecFrame decodes one exec request into the header and the raw
// inline shard payloads (order matching hdr.Inline). Each payload is read
// through a reader limited to its declared length, so the buffer grows
// only with bytes actually received: a frame declaring gigabytes but
// carrying a few bytes fails short instead of allocating the declaration.
func readExecFrame(r io.Reader) (execHeader, [][]byte, error) {
	var hdr execHeader
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:4]); err != nil {
		return hdr, nil, fmt.Errorf("cluster: reading frame header length: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(lenBuf[:4])
	if hlen == 0 || hlen > maxHeaderBytes {
		return hdr, nil, fmt.Errorf("cluster: absurd frame header length %d", hlen)
	}
	hj := make([]byte, hlen)
	if _, err := io.ReadFull(r, hj); err != nil {
		return hdr, nil, fmt.Errorf("cluster: reading frame header: %w", err)
	}
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("cluster: decoding frame header: %w", err)
	}
	if hdr.BAtomic <= 0 || hdr.BAtomic > 1<<20 || hdr.BAtomic&(hdr.BAtomic-1) != 0 {
		return hdr, nil, fmt.Errorf("cluster: frame header b_atomic %d not a power of two", hdr.BAtomic)
	}
	if len(hdr.ARefs) == 0 || len(hdr.BRefs) == 0 {
		return hdr, nil, fmt.Errorf("cluster: frame header references %d A and %d B shards, want both operands", len(hdr.ARefs), len(hdr.BRefs))
	}
	inline := make([][]byte, len(hdr.Inline))
	for i, ref := range hdr.Inline {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return hdr, nil, fmt.Errorf("cluster: reading inline shard %s length: %w", ref.ShardKey, err)
		}
		n := int64(binary.LittleEndian.Uint64(lenBuf[:]))
		if n <= 0 || n > maxOperandBytes {
			return hdr, nil, fmt.Errorf("cluster: absurd inline shard %s length %d", ref.ShardKey, n)
		}
		buf, err := io.ReadAll(io.LimitReader(r, n))
		if err != nil {
			return hdr, nil, fmt.Errorf("cluster: reading inline shard %s: %w", ref.ShardKey, err)
		}
		if int64(len(buf)) != n {
			return hdr, nil, fmt.Errorf("cluster: inline shard %s truncated at %d of %d bytes: %w", ref.ShardKey, len(buf), n, io.ErrUnexpectedEOF)
		}
		inline[i] = buf
	}
	return hdr, inline, nil
}

// readLimited slurps a payload, rejecting anything over the limit.
func readLimited(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("cluster: payload exceeds %d-byte limit", limit)
	}
	return data, nil
}

// rpcFailure is the JSON error body of a failed worker RPC.
type rpcFailure struct {
	Error string `json:"error"`
	// Corrupt marks operand streams that failed their checksum or
	// structural validation — the coordinator escalates these to the
	// service layer's combination quarantine instead of retrying forever.
	Corrupt bool `json:"corrupt,omitempty"`
	// Transient marks failures worth re-sending to the same worker.
	Transient bool `json:"transient,omitempty"`
	// MissingShards lists referenced shards the worker does not hold (or
	// holds with the wrong fingerprint); the coordinator retries the same
	// worker once with those payloads inlined.
	MissingShards []ShardKey `json:"missing_shards,omitempty"`
}
