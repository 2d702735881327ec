package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// errCheck marks a cell whose simulated results broke an outputs check
// (a conservation law or the paper's headline verdict).
var errCheck = errors.New("outputs check failed")

// canon renders a result value as canonical text: every exported field
// by name, floats in their shortest exact form, map keys sorted. Unlike
// fmt's %v it never calls String methods, which round sim durations.
func canon(v any) string {
	var b strings.Builder
	writeCanon(&b, reflect.ValueOf(v))
	return b.String()
}

func writeCanon(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("nil")
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		writeCanon(b, v.Elem())
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeCanon(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return canon(keys[i].Interface()) < canon(keys[j].Interface()) })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeCanon(b, k)
			b.WriteByte(':')
			writeCanon(b, v.MapIndex(k))
		}
		b.WriteByte('}')
	case reflect.Struct:
		t := v.Type()
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			b.WriteString(t.Field(i).Name)
			b.WriteByte(':')
			writeCanon(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "<%s>", v.Kind())
	}
}

// digest is the short fingerprint of a cell's canonical result text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// golden maps workload → cell → the result digest recorded at the
// default seed. A change that only makes the simulator faster leaves
// every one of them unchanged.
type golden map[string]map[string]string

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden records one workload's digests into the golden file at
// path, keeping the other workloads' entries.
func writeGolden(path, workload string, digests map[string]string) error {
	g := golden{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	g[workload] = digests
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// A checker judges every cell result of a run. A cell fails when it
// errors, breaks an outputs check, differs from the same cell in the
// run's reference pass (the first pass, or the untraced pass of a traced
// run), or, at the default seed, differs from its recorded digest.
type checker struct {
	golden    map[string]string // nil: not at the default seed
	reference map[string]string // cell → digest of the reference pass
	attempted int
	failures  []string
}

func newChecker(recorded golden, workload string, seed int64) *checker {
	c := &checker{reference: map[string]string{}}
	if seed == defaultSeed {
		c.golden = recorded[workload]
		if c.golden == nil {
			c.golden = map[string]string{} // nothing recorded: every cell fails
		}
	}
	return c
}

// judge records one cell outcome and reports whether it passed.
func (c *checker) judge(pass int, name, text string, err error) bool {
	c.attempted++
	fail := func(format string, args ...any) bool {
		c.failures = append(c.failures, fmt.Sprintf("pass %d cell %s: ", pass, name)+fmt.Sprintf(format, args...))
		return false
	}
	if err != nil {
		return fail("%v", err)
	}
	d := digest(text)
	if ref, ok := c.reference[name]; !ok {
		c.reference[name] = d
	} else if d != ref {
		return fail("result digest %s differs from the reference pass's %s", d, ref)
	}
	if c.golden != nil {
		want, ok := c.golden[name]
		switch {
		case !ok:
			return fail("no digest recorded at the default seed")
		case d != want:
			return fail("result digest %s differs from the recorded %s", d, want)
		}
	}
	return true
}

func (c *checker) failed() int { return len(c.failures) }
