// Package snapshot persists session checkpoints crash-safely. A snapshot
// file is a self-describing frame — fixed magic, format version, payload
// length and CRC32 ahead of the payload — written atomically (temp
// file, fsync, rename, directory sync) so a crash mid-write can never
// leave a file that both exists under a snapshot name and decodes. The
// store keeps the newest K snapshots and, on load, falls back past
// corrupt or truncated files to the newest one that still verifies;
// a frame from an unsupported format version fails loudly instead —
// silently rewinding to an older frame would replay divergent state.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Version is the current snapshot format version. Decode accepts exactly
// the versions it knows how to parse; a payload written by a newer code
// version fails loudly rather than being misread. The version covers the
// frame layout and the payload schema together: any change to either —
// new required field, changed field meaning, different checksum — must
// bump it and teach Decode the old layouts it still supports.
//
// Version history:
//
//	1 — initial frame: session payload with engine checkpoint + partials,
//	    the whole payload a single JSON document.
//	2 — asynchronous engine era: payloads may carry the engine Mode, the
//	    per-pending-batch start offsets and the session usage counters.
//	    Every new field is optional with a zero-value default matching v1
//	    semantics (synchronous mode, zero counters), so v1 frames decode
//	    unchanged and the frame layout is identical.
//	3 — split payload: a length-prefixed JSON section (everything small)
//	    followed by a binary section carrying the bulk float64 data —
//	    observation matrices, history traces, per-pending-batch points —
//	    as raw big-endian IEEE-754 words. The frame header and the CRC
//	    over the whole payload are unchanged; only the payload layout is
//	    new. JSON-number parsing of the traces dominated decode (~15 ms,
//	    ~17k allocs at n=1024 recorded cycles); the binary section
//	    decodes in a handful of flat allocations.
const Version = 3

// minVersion is the oldest format Decode still reads.
const minVersion = 1

// magic identifies snapshot files; the trailing NUL guards against text
// files that merely start with the same letters.
const magic = "PBOSNAP\x00"

// header is magic(8) + version(u32) + payload length(u64) + CRC32(u32),
// all big-endian.
const headerSize = 8 + 4 + 8 + 4

// ErrCorrupt reports a frame that failed structural or checksum
// verification.
var ErrCorrupt = errors.New("snapshot: corrupt frame")

// ErrVersion reports a structurally intact frame whose format version
// this build does not read — written by a newer (or retired) code
// version. Distinct from ErrCorrupt on purpose: a corrupt newest frame
// is a torn write and falling back to the previous snapshot is safe,
// but a version-unsupported frame is a healthy snapshot this build
// cannot parse, and quietly resuming from an older one would rewind the
// session and let replayed tells diverge.
var ErrVersion = errors.New("snapshot: unsupported format version")

// ErrNoSnapshot reports that no usable snapshot exists in the store.
var ErrNoSnapshot = errors.New("snapshot: no usable snapshot")

// SectionCodec is the optional payload capability behind the v3 split
// layout. Implementations serialize themselves as a JSON shell — every
// field except the bulk float64 data — plus ordered binary sections
// holding that data; the section order is the implementation's contract
// with itself. Values without the capability still encode and decode:
// their whole JSON document rides the shell and the section list is
// empty. (Structural interface on purpose: implementors — core's
// Checkpoint, session's payload — need not import this package.)
type SectionCodec interface {
	// MarshalSections returns the JSON shell and the binary sections.
	MarshalSections() (shell []byte, sections [][]float64, err error)
	// UnmarshalSections rebuilds the receiver from a decoded shell and
	// its sections.
	UnmarshalSections(shell []byte, sections [][]float64) error
}

// Encode frames v at the current format version: header with payload
// checksum, then the payload — a length-prefixed JSON shell followed by
// the binary float64 sections (empty for plain-JSON payloads).
//
// v3 payload layout, all integers big-endian:
//
//	u32 shell length | shell (JSON) | u32 section count |
//	per section: u64 word count | count × float64 (IEEE-754 bits)
func Encode(v any) ([]byte, error) {
	var shell []byte
	var sections [][]float64
	var err error
	if sc, ok := v.(SectionCodec); ok {
		shell, sections, err = sc.MarshalSections()
	} else {
		shell, err = json.Marshal(v)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode payload: %w", err)
	}
	plen := 4 + len(shell) + 4
	for _, sec := range sections {
		plen += 8 + 8*len(sec)
	}
	out := make([]byte, headerSize+plen)
	copy(out, magic)
	binary.BigEndian.PutUint32(out[8:], Version)
	binary.BigEndian.PutUint64(out[12:], uint64(plen))
	off := headerSize
	binary.BigEndian.PutUint32(out[off:], uint32(len(shell)))
	off += 4
	copy(out[off:], shell)
	off += len(shell)
	binary.BigEndian.PutUint32(out[off:], uint32(len(sections)))
	off += 4
	for _, sec := range sections {
		binary.BigEndian.PutUint64(out[off:], uint64(len(sec)))
		off += 8
		for _, f := range sec {
			binary.BigEndian.PutUint64(out[off:], math.Float64bits(f))
			off += 8
		}
	}
	binary.BigEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[headerSize:]))
	return out, nil
}

// Decode verifies a frame and unmarshals its payload into v: magic,
// supported version, exact payload length and checksum must all hold.
// Frames from format versions below 3 carry a single JSON document and
// decode through encoding/json unchanged; v3 frames decode their binary
// sections into v's SectionCodec. A version outside [minVersion,
// Version] returns ErrVersion; every structural failure — truncation,
// checksum mismatch, a binary section overrunning the payload — returns
// ErrCorrupt.
func Decode(data []byte, v any) error {
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.BigEndian.Uint32(data[8:])
	if version < minVersion || version > Version {
		return fmt.Errorf("%w %d (this build reads %d-%d)", ErrVersion, version, minVersion, Version)
	}
	plen := binary.BigEndian.Uint64(data[12:])
	if plen != uint64(len(data)-headerSize) {
		return fmt.Errorf("%w: payload %d bytes, header declares %d (truncated write?)", ErrCorrupt, len(data)-headerSize, plen)
	}
	payload := data[headerSize:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[20:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if version < 3 {
		if err := json.Unmarshal(payload, v); err != nil {
			return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
		}
		return nil
	}
	shell, sections, err := splitPayload(payload)
	if err != nil {
		return err
	}
	if sc, ok := v.(SectionCodec); ok {
		if err := sc.UnmarshalSections(shell, sections); err != nil {
			return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
		}
		return nil
	}
	if len(sections) > 0 {
		return fmt.Errorf("snapshot: frame carries %d binary sections but %T cannot receive them", len(sections), v)
	}
	if err := json.Unmarshal(shell, v); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
}

// splitPayload parses the v3 payload layout. The CRC already verified
// the bytes, so any structural inconsistency here means the frame was
// truncated or assembled wrong — ErrCorrupt either way.
func splitPayload(payload []byte) (shell []byte, sections [][]float64, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("%w: payload too short for shell length", ErrCorrupt)
	}
	slen := binary.BigEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(slen) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: shell declares %d bytes, payload holds %d", ErrCorrupt, slen, len(rest))
	}
	shell, rest = rest[:slen], rest[slen:]
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: payload too short for section count", ErrCorrupt)
	}
	nsec := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	sections = make([][]float64, nsec)
	for i := range sections {
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("%w: binary section %d truncated", ErrCorrupt, i)
		}
		n := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		if n > uint64(len(rest))/8 {
			return nil, nil, fmt.Errorf("%w: binary section %d declares %d words, payload holds %d bytes", ErrCorrupt, i, n, len(rest))
		}
		if n == 0 {
			continue
		}
		sec := make([]float64, n)
		for j := range sec {
			sec[j] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*j:]))
		}
		sections[i] = sec
		rest = rest[8*n:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d bytes trail the binary sections", ErrCorrupt, len(rest))
	}
	return shell, sections, nil
}

// Store persists a sequence of snapshots in one directory.
type Store struct {
	// Dir is the snapshot directory; SaveEncoded creates it on first use.
	Dir string
	// Keep bounds how many snapshots are retained (default 5). Older
	// files are deleted after each successful save.
	Keep int
}

const fileExt = ".pbosnap"

func (s *Store) keep() int {
	if s.Keep <= 0 {
		return 5
	}
	return s.Keep
}

// SaveEncoded writes an already-Encoded frame as the next snapshot in
// sequence and prunes old files. The write is atomic and durable: the
// frame lands under a temporary name, is fsynced, renamed into place, and
// the directory entry is synced — a crash at any point leaves either the
// complete new snapshot or none. Callers encode the frame themselves, so
// the session's snapshot-bytes accounting reads its size without a second
// encode.
func (s *Store) SaveEncoded(frame []byte) (path string, err error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	s.sweepTemp()
	seqs, err := s.sequence()
	if err != nil {
		return "", err
	}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	path = s.path(next)
	if err := WriteFileDurable(path, frame); err != nil {
		return "", err
	}
	// Pruning is best-effort: the new frame is already durable, and a
	// failed removal must not turn the successful save into a reported
	// failure — callers would record a snapshot that never happened (and
	// skip its bytes) for a frame that is on disk. A file that resists
	// removal is retried by the next save's prune pass.
	for len(seqs) >= s.keep() {
		if err := os.Remove(s.path(seqs[0])); err != nil && !os.IsNotExist(err) {
			break
		}
		seqs = seqs[1:]
	}
	return path, nil
}

// LoadLatest decodes the newest snapshot that verifies into v, skipping
// corrupt or truncated files, and returns its path. ErrNoSnapshot is
// returned when the directory holds no snapshot that decodes. A newest
// frame from an unsupported format version is NOT skipped: it is a
// healthy snapshot this build cannot read, and falling back to an older
// one would silently rewind the session — LoadLatest fails loudly with
// ErrVersion instead.
func (s *Store) LoadLatest(v any) (path string, err error) {
	seqs, err := s.sequence()
	if err != nil {
		return "", err
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		p := s.path(seqs[i])
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		if err := Decode(data, v); err != nil {
			if errors.Is(err, ErrVersion) {
				return "", fmt.Errorf("%s: %w", filepath.Base(p), err)
			}
			lastErr = fmt.Errorf("%s: %w", filepath.Base(p), err)
			continue
		}
		return p, nil
	}
	if lastErr != nil {
		return "", fmt.Errorf("%w (newest failure: %v)", ErrNoSnapshot, lastErr)
	}
	return "", ErrNoSnapshot
}

// List returns the paths of all snapshots, oldest first.
func (s *Store) List() ([]string, error) {
	seqs, err := s.sequence()
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(seqs))
	for i, q := range seqs {
		paths[i] = s.path(q)
	}
	return paths, nil
}

func (s *Store) path(seq uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("snap-%08d%s", seq, fileExt))
}

// snapName anchors the file names path() generates (a Sscanf-style
// prefix match would also accept trailing garbage, counting a crash
// leftover like snap-00000007.pbosnap.tmp123 as sequence 7). 20 digits
// bounds a uint64; wider padding is rejected by the path round-trip.
var snapName = regexp.MustCompile(`^snap-([0-9]{8,20})` + regexp.QuoteMeta(fileExt) + `$`)

// sequence returns the sorted sequence numbers present in the directory.
// Only files whose name round-trips through path() count: every returned
// sequence maps to exactly one canonical file, so phantom or duplicate
// entries can never skew the next-sequence computation or retention.
func (s *Store) sequence() ([]uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		m := snapName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil || filepath.Base(s.path(seq)) != e.Name() {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// sweepTemp removes crash leftovers: a temp file whose rename never
// happened is garbage, and left in place would accumulate forever. Best
// effort — SaveEncoded proceeds regardless.
func (s *Store) sweepTemp() {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), fileExt+".tmp") {
			//lint:ignore errcheck best-effort sweep of an orphaned temp file
			_ = os.Remove(filepath.Join(s.Dir, e.Name()))
		}
	}
}

// WriteFileDurable writes data to path atomically and durably: temp file
// in the same directory, fsync, rename over the final name, then sync the
// directory so the rename itself is on disk. Exported for sibling
// persistence — the server's session specs — that must survive the same
// crashes as the snapshots.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		// Best effort: the temp file is garbage either way.
		//lint:ignore errcheck best-effort cleanup of a garbage temp file
		_ = tmp.Close()
		//lint:ignore errcheck best-effort cleanup of a garbage temp file
		_ = os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		cerr := d.Close()
		if serr != nil {
			return fmt.Errorf("snapshot: sync dir %s: %w", dir, serr)
		}
		if cerr != nil {
			return fmt.Errorf("snapshot: close dir %s: %w", dir, cerr)
		}
	}
	return nil
}
