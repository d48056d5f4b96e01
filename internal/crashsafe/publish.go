package crashsafe

import (
	"fmt"
	"strconv"
	"strings"

	"wormcontain/internal/faultfs"
)

// tmpSuffix marks a publish in flight; readers never open such a file.
const tmpSuffix = ".tmp"

// WriteSync writes data to f in full, then fsyncs: when it returns nil
// every byte survives a crash.
func WriteSync(f faultfs.File, data []byte) error {
	for len(data) > 0 {
		n, err := f.Write(data)
		if err != nil {
			return err
		}
		data = data[n:]
	}
	return f.Sync()
}

// Publish makes data the content of name atomically: written to a temp
// sibling, fsynced, renamed into place. The rename is the publication
// point — a crash anywhere before it leaves the previous content of
// name untouched. A failure removes the temp file (best effort: a crash
// cannot, which is why ScanDir reports strays).
func Publish(fsys faultfs.FS, name string, data []byte) error {
	tmp := name + tmpSuffix
	f, err := fsys.Create(tmp)
	if err == nil {
		err = WriteSync(f, data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("crashsafe: publish %s: %w", name, err)
	}
	return nil
}

// Series names one family of generation files: Prefix, the generation
// as sixteen decimal digits, Suffix. The fixed width makes lexical file
// order equal generation order.
type Series struct{ Prefix, Suffix string }

// Name returns the file name of generation gen.
func (s Series) Name(gen uint64) string {
	return fmt.Sprintf("%s%016d%s", s.Prefix, gen, s.Suffix)
}

// match parses names of the exact generated form and nothing else: a
// shorter or longer number, a sign or a stray prefix is a foreign file.
func (s Series) match(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, s.Prefix)
	if ok {
		digits, ok = strings.CutSuffix(digits, s.Suffix)
	}
	if !ok || len(digits) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil
}

// ScanDir classifies a state directory: gens[i] holds the published
// generations of series[i], ascending (FS.List is sorted and the names
// are fixed-width); tmps the temp files interrupted publishes left
// behind. Every other file is ignored.
func ScanDir(fsys faultfs.FS, series ...Series) (gens [][]uint64, tmps []string, err error) {
	names, err := fsys.List()
	if err != nil {
		return nil, nil, fmt.Errorf("crashsafe: list state dir: %w", err)
	}
	gens = make([][]uint64, len(series))
	for _, name := range names {
		if len(name) > len(tmpSuffix) && strings.HasSuffix(name, tmpSuffix) {
			tmps = append(tmps, name)
			continue
		}
		for i, s := range series {
			if gen, ok := s.match(name); ok {
				gens[i] = append(gens[i], gen)
				break
			}
		}
	}
	return gens, tmps, nil
}

// Reclaim removes every generation of the series older than keep, then
// every stray temp file. Best effort: a failure only delays
// reclamation. The caller has no publish in flight.
func Reclaim(fsys faultfs.FS, keep uint64, series ...Series) {
	gens, tmps, err := ScanDir(fsys, series...)
	if err != nil {
		return
	}
	for i, s := range series {
		for _, gen := range gens[i] {
			if gen < keep {
				_ = fsys.Remove(s.Name(gen))
			}
		}
	}
	for _, name := range tmps {
		_ = fsys.Remove(name)
	}
}
