package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// digestFile holds one digest per cell of the fixed universe that any seed
// can choose. It is committed; `--update-digests` rewrites it after a
// deliberate change of simulated results.
const digestFile = "perfbench/digests.json"

// canonical renders v as text whose bytes depend only on its value: struct
// fields in declaration order, floats by bit pattern (so -0, NaN payloads
// and last-bit differences all show), map entries sorted by key.
func canonical(v any) string {
	var b strings.Builder
	writeCanonical(&b, reflect.ValueOf(v))
	return b.String()
}

func writeCanonical(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		writeCanonical(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(t.Field(i).Name)
			b.WriteByte('=')
			writeCanonical(b, v.Field(i))
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeCanonical(b, v.Index(i))
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		vals := make(map[string]reflect.Value, v.Len())
		for it := v.MapRange(); it.Next(); {
			k := canonical(it.Key().Interface())
			keys = append(keys, k)
			vals[k] = it.Value()
		}
		sort.Strings(keys)
		b.WriteString("map[")
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte(':')
			writeCanonical(b, vals[k])
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "f%016x", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		panic(fmt.Sprintf("canonical: unsupported kind %s", v.Kind()))
	}
}

// digest is the SHA-256 of v's canonical form.
func digest(v any) string {
	sum := sha256.Sum256([]byte(canonical(v)))
	return hex.EncodeToString(sum[:])
}

// cellKey names one (bandwidth scale, mix, scheme) cell.
func cellKey(scale float64, mix, scheme string) string {
	return strconv.FormatFloat(scale, 'g', -1, 64) + "/" + mix + "/" + scheme
}

// digests checks results against the committed file. In update mode it
// records instead of checking.
type digests struct {
	mu     sync.Mutex
	want   map[string]string
	got    map[string]string
	update bool
}

func loadDigests(path string, update bool) (*digests, error) {
	d := &digests{want: map[string]string{}, got: map[string]string{}, update: update}
	if update {
		return d, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading cell digests: %w", err)
	}
	if err := json.Unmarshal(data, &d.want); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return d, nil
}

// check compares one result with its committed digest and reports whether
// it matched. A cell with no committed digest is a mismatch: the universe
// is fixed, so it means the plan and the digest file disagree.
func (d *digests) check(key string, v any) bool {
	sum := digest(v)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.update {
		d.got[key] = sum
		return true
	}
	return d.want[key] == sum
}

func (d *digests) save() error {
	data, err := json.MarshalIndent(d.got, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(data, '\n'), 0o644)
}
