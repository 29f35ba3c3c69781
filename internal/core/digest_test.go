package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden digest file")

// digest returns tr's content digest, failing the test on error.
func digest(tb testing.TB, tr *trace.Trace) string {
	tb.Helper()
	d, err := core.TraceDigest(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// traceWorkload traces w at the given thread count and seed 1.
func traceWorkload(tb testing.TB, w *workloads.Workload, threads int) *trace.Trace {
	tb.Helper()
	inst, err := w.Instantiate(workloads.Config{Threads: threads, Seed: 1})
	if err != nil {
		tb.Fatalf("%s: instantiate: %v", w.Name, err)
	}
	tr, err := inst.Trace()
	if err != nil {
		tb.Fatalf("%s: trace: %v", w.Name, err)
	}
	return tr
}

// cloneTrace deep-copies everything the digest reads.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	c := &trace.Trace{Program: tr.Program, Entry: tr.Entry}
	for _, f := range tr.Funcs {
		c.Funcs = append(c.Funcs, trace.FuncInfo{Name: f.Name, Blocks: append([]trace.BlockInfo(nil), f.Blocks...)})
	}
	for _, th := range tr.Threads {
		c.Threads = append(c.Threads, &trace.ThreadTrace{
			TID:     th.TID,
			Records: append([]trace.Record(nil), th.Records...),
			Mem:     append([]trace.MemAccess(nil), th.Mem...),
			Locks:   append([]trace.LockOp(nil), th.Locks...),
		})
	}
	return c
}

// editPayload rebuilds thread i of t through Append, with each record's
// accesses and lock ops passed through edit.
func editPayload(t *trace.Trace, i int, edit func(j int, mem []trace.MemAccess, locks []trace.LockOp) ([]trace.MemAccess, []trace.LockOp)) {
	src := t.Threads[i]
	th := &trace.ThreadTrace{TID: src.TID}
	for j := range src.Records {
		mem, locks := edit(j, src.MemOf(j), src.LocksOf(j))
		th.Append(src.Records[j], mem, locks)
	}
	t.Threads[i] = th
}

// mutation is one change to a trace. class groups mutations for the
// coverage check.
type mutation struct {
	class, name string
	apply       func(*trace.Trace)
}

// edges are the bits a mutation flips in a field of the given width: the
// lowest and the highest, so hashing a field narrower than its type fails.
func edges(width uint) []uint { return []uint{0, width - 1} }

// mutations lists, for tr, a mutation of every field the digest must cover
// (at both bit edges of its width), of each thread's position, and of where
// each access and lock sits in the stream. Fields a record kind does not
// carry (Func on a CALL, Mem on a SKIP) are not listed: no encoder writes
// them, so no decoded trace has them.
func mutations(tr *trace.Trace) []mutation {
	var ms []mutation
	add := func(class, name string, f func(*trace.Trace)) {
		ms = append(ms, mutation{class, name, f})
	}
	add("program", "program+x", func(t *trace.Trace) { t.Program += "x" })
	if tr.Program != "" {
		add("program", "program[0]^1", func(t *trace.Trace) { t.Program = flipFirst(t.Program) })
	}
	for _, bit := range edges(32) {
		add("entry", fmt.Sprintf("entry^bit%d", bit), func(t *trace.Trace) { t.Entry ^= 1 << bit })
	}
	for f, fi := range tr.Funcs {
		add("name", fmt.Sprintf("f%d/name+x", f), func(t *trace.Trace) { t.Funcs[f].Name += "x" })
		if fi.Name != "" {
			add("name", fmt.Sprintf("f%d/name[0]^1", f), func(t *trace.Trace) { t.Funcs[f].Name = flipFirst(t.Funcs[f].Name) })
		}
		for b := range fi.Blocks {
			for _, bit := range edges(32) {
				add("ninstr", fmt.Sprintf("f%d/b%d/ninstr^bit%d", f, b, bit), func(t *trace.Trace) { t.Funcs[f].Blocks[b].NInstr ^= 1 << bit })
			}
		}
	}
	for i, th := range tr.Threads {
		// TID is an int: its top bit is the sign, so flip the one below.
		for _, bit := range edges(bits.UintSize - 1) {
			add("tid", fmt.Sprintf("t%d/tid^bit%d", i, bit), func(t *trace.Trace) { t.Threads[i].TID ^= 1 << bit })
		}
		if i+1 < len(tr.Threads) {
			add("swap", fmt.Sprintf("swap t%d t%d", i, i+1), func(t *trace.Trace) {
				t.Threads[i], t.Threads[i+1] = t.Threads[i+1], t.Threads[i]
			})
		}
		for j, r := range th.Records {
			at := fmt.Sprintf("t%d/r%d", i, j)
			rec := func(t *trace.Trace) *trace.Record { return &t.Threads[i].Records[j] }
			for _, k := range []trace.Kind{trace.KindBBL, trace.KindCall, trace.KindRet, trace.KindSkip} {
				if k != r.Kind {
					add("kind", fmt.Sprintf("%s/kind=%v", at, k), func(t *trace.Trace) { rec(t).Kind = k })
				}
			}
			switch r.Kind {
			case trace.KindBBL:
				for _, bit := range edges(32) {
					add("func", fmt.Sprintf("%s/func^bit%d", at, bit), func(t *trace.Trace) { rec(t).Func ^= 1 << bit })
					add("block", fmt.Sprintf("%s/block^bit%d", at, bit), func(t *trace.Trace) { rec(t).Block ^= 1 << bit })
				}
				for _, bit := range edges(64) {
					add("n", fmt.Sprintf("%s/n^bit%d", at, bit), func(t *trace.Trace) { rec(t).N ^= 1 << bit })
				}
				ms = append(ms, accessMutations(tr, i, j, at)...)
			case trace.KindCall:
				for _, bit := range edges(32) {
					add("callee", fmt.Sprintf("%s/callee^bit%d", at, bit), func(t *trace.Trace) { rec(t).Callee ^= 1 << bit })
				}
			case trace.KindSkip:
				for _, bit := range edges(8) {
					add("skipkind", fmt.Sprintf("%s/skipkind^bit%d", at, bit), func(t *trace.Trace) { rec(t).SkipKind ^= 1 << bit })
				}
				for _, bit := range edges(64) {
					add("n", fmt.Sprintf("%s/n^bit%d", at, bit), func(t *trace.Trace) { rec(t).N ^= 1 << bit })
				}
			}
		}
	}
	return ms
}

// accessMutations covers the accesses and locks of BBL record j of thread
// i: every field of each, dropping each, and moving the record's last one
// to the front of the thread's next BBL record.
func accessMutations(tr *trace.Trace, i, j int, at string) []mutation {
	var ms []mutation
	add := func(class, name string, f func(*trace.Trace)) {
		ms = append(ms, mutation{class, at + "/" + name, f})
	}
	mem, locks := tr.Threads[i].MemOf(j), tr.Threads[i].LocksOf(j)
	for k := range mem {
		m := func(t *trace.Trace) *trace.MemAccess { return &t.Threads[i].MemOf(j)[k] }
		for _, bit := range edges(16) {
			add("mem.instr", fmt.Sprintf("m%d/instr^bit%d", k, bit), func(t *trace.Trace) { m(t).Instr ^= 1 << bit })
		}
		for _, bit := range edges(64) {
			add("mem.addr", fmt.Sprintf("m%d/addr^bit%d", k, bit), func(t *trace.Trace) { m(t).Addr ^= 1 << bit })
		}
		for _, bit := range edges(8) {
			add("mem.size", fmt.Sprintf("m%d/size^bit%d", k, bit), func(t *trace.Trace) { m(t).Size ^= 1 << bit })
		}
		add("mem.store", fmt.Sprintf("m%d/store", k), func(t *trace.Trace) { m(t).Store = !m(t).Store })
		add("mem.drop", fmt.Sprintf("m%d/drop", k), func(t *trace.Trace) {
			editPayload(t, i, func(n int, mem []trace.MemAccess, locks []trace.LockOp) ([]trace.MemAccess, []trace.LockOp) {
				if n == j {
					mem = append(mem[:k:k], mem[k+1:]...)
				}
				return mem, locks
			})
		})
	}
	for k := range locks {
		l := func(t *trace.Trace) *trace.LockOp { return &t.Threads[i].LocksOf(j)[k] }
		for _, bit := range edges(16) {
			add("lock.instr", fmt.Sprintf("l%d/instr^bit%d", k, bit), func(t *trace.Trace) { l(t).Instr ^= 1 << bit })
		}
		for _, bit := range edges(64) {
			add("lock.addr", fmt.Sprintf("l%d/addr^bit%d", k, bit), func(t *trace.Trace) { l(t).Addr ^= 1 << bit })
		}
		add("lock.release", fmt.Sprintf("l%d/release", k), func(t *trace.Trace) { l(t).Release = !l(t).Release })
		add("lock.drop", fmt.Sprintf("l%d/drop", k), func(t *trace.Trace) {
			editPayload(t, i, func(n int, mem []trace.MemAccess, locks []trace.LockOp) ([]trace.MemAccess, []trace.LockOp) {
				if n == j {
					locks = append(locks[:k:k], locks[k+1:]...)
				}
				return mem, locks
			})
		})
	}
	next := -1
	for n := j + 1; n < len(tr.Threads[i].Records); n++ {
		if tr.Threads[i].Records[n].Kind == trace.KindBBL {
			next = n
			break
		}
	}
	if next < 0 {
		return ms
	}
	if len(mem) > 0 {
		add("mem.move", fmt.Sprintf("last access to r%d", next), func(t *trace.Trace) {
			var moved trace.MemAccess
			editPayload(t, i, func(n int, mem []trace.MemAccess, locks []trace.LockOp) ([]trace.MemAccess, []trace.LockOp) {
				switch n {
				case j:
					moved, mem = mem[len(mem)-1], mem[:len(mem)-1]
				case next:
					mem = append([]trace.MemAccess{moved}, mem...)
				}
				return mem, locks
			})
		})
	}
	if len(locks) > 0 {
		add("lock.move", fmt.Sprintf("last lock to r%d", next), func(t *trace.Trace) {
			var moved trace.LockOp
			editPayload(t, i, func(n int, mem []trace.MemAccess, locks []trace.LockOp) ([]trace.MemAccess, []trace.LockOp) {
				switch n {
				case j:
					moved, locks = locks[len(locks)-1], locks[:len(locks)-1]
				case next:
					locks = append([]trace.LockOp{moved}, locks...)
				}
				return mem, locks
			})
		})
	}
	return ms
}

// flipFirst flips the low bit of s's first byte, keeping its length.
func flipFirst(s string) string {
	b := []byte(s)
	b[0] ^= 1
	return string(b)
}

// TestTraceDigestSensitivity: the digest changes under every single-field
// mutation, thread swap, and re-split of the access and lock stream, on
// random gen.go traces, the cache tests' hand-built trace, and that trace
// with a program name too long for Encode. A packing slip that drops or
// narrows a field passes every key test keyed on options or pointer
// identity; this one catches it.
func TestTraceDigestSensitivity(t *testing.T) {
	traces := map[string]*trace.Trace{"cachetest": core.CacheTestTrace()}
	for seed := int64(1); seed <= 40; seed++ {
		traces[fmt.Sprintf("gen-%d", seed)] = check.Generate(seed)
	}
	// A program name past the codec's string limit: Encode refuses the
	// trace, but the digest skips Encode's caps and still keys it.
	over := cloneTrace(core.CacheTestTrace())
	over.Program = strings.Repeat("p", maxString+1)
	if err := trace.Encode(io.Discard, over, 2); err == nil {
		t.Fatal("Encode accepted a program name over the string limit")
	}
	lastByte := cloneTrace(over)
	lastByte.Program = over.Program[:maxString] + "q"
	if digest(t, lastByte) == digest(t, over) {
		t.Error("over-caps: changing the program name's last byte does not change the digest")
	}
	traces["over-caps"] = over
	classes := make(map[string]int)
	for name, tr := range traces {
		base := digest(t, tr)
		if again := digest(t, cloneTrace(tr)); again != base {
			t.Fatalf("%s: a deep copy digests differently", name)
		}
		for _, m := range mutations(tr) {
			mt := cloneTrace(tr)
			m.apply(mt)
			if reflect.DeepEqual(mt, tr) {
				t.Fatalf("%s: mutation %s left the trace unchanged", name, m.name)
			}
			if digest(t, mt) == base {
				t.Errorf("%s: mutation %s does not change the digest", name, m.name)
			}
			classes[m.class]++
		}
	}
	// Every class must have run, so the inputs keep exercising each field.
	for _, c := range []string{
		"program", "entry", "name", "ninstr", "tid", "swap", "kind",
		"func", "block", "n", "callee", "skipkind",
		"mem.instr", "mem.addr", "mem.size", "mem.store", "mem.drop", "mem.move",
		"lock.instr", "lock.addr", "lock.release", "lock.drop", "lock.move",
	} {
		if classes[c] == 0 {
			t.Errorf("no trace exercised mutation class %q", c)
		}
	}
}

// TestTraceDigestAcrossDecoders: every workload digests identically from
// the tracer's in-memory trace and from every decoder of every container
// version, so a cache entry stored from one path hits from any other. The
// strict decoder's rows include files of every version hand-edited into
// each non-canonical form it accepts. A session's upload handle keys every
// one of those bodies like the in-memory trace: Encode's bytes of every
// version from the bytes themselves (trace.CanonicalKey vouches for them),
// every hand edit from the decoded trace (CanonicalKey refuses them).
func TestTraceDigestAcrossDecoders(t *testing.T) {
	dir := t.TempDir()
	edits := 0
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			tr := traceWorkload(t, w, 8)
			checkTiles(t, "tracer", tr)
			want := digest(t, tr)
			opts := core.Defaults()
			wantKey, err := core.CacheKey(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			// uploadKey checks body's canonical verdict and returns the key
			// its upload handle files opts under.
			uploadKey := func(name string, body []byte, canonical bool) string {
				if _, ok := trace.CanonicalKey(body); ok != canonical {
					t.Errorf("%s: CanonicalKey ok = %v, want %v", name, ok, canonical)
				}
				u, err := core.NewSession().Upload(body, 0)
				if err != nil {
					t.Fatalf("%s: upload: %v", name, err)
				}
				return u.CacheKey(opts)
			}
			for _, v := range []int{1, 2, 3} {
				var buf bytes.Buffer
				if err := trace.Encode(&buf, tr, v); err != nil {
					t.Fatalf("v%d: encode: %v", v, err)
				}
				data := buf.Bytes()
				path := filepath.Join(dir, fmt.Sprintf("%s.v%d.tft", w.Name, v))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				decoders := map[string]func() (*trace.Trace, error){
					"Decode": func() (*trace.Trace, error) { return trace.Decode(bytes.NewReader(data)) },
				}
				for _, p := range []int{0, 1, 4} {
					decoders[fmt.Sprintf("DecodeStrict/%d", p)] = func() (*trace.Trace, error) {
						return trace.DecodeStrict(bytes.NewReader(data), int64(len(data)), p)
					}
					decoders[fmt.Sprintf("ReadFileParallel/%d", p)] = func() (*trace.Trace, error) {
						return trace.ReadFileParallel(path, p)
					}
				}
				decoders["Upload.Trace"] = func() (*trace.Trace, error) {
					u, err := core.NewSession().Upload(data, 0)
					if err != nil {
						return nil, err
					}
					return u.Trace()
				}
				if k := uploadKey(fmt.Sprintf("v%d", v), data, true); k != wantKey {
					t.Errorf("v%d: upload key %s, in-memory trace %s", v, k, wantKey)
				}
				for form, edited := range nonCanonical(t, tr, v, data) {
					decoders["DecodeStrict/"+form] = func() (*trace.Trace, error) {
						return trace.DecodeStrict(bytes.NewReader(edited), int64(len(edited)), 0)
					}
					if k := uploadKey(fmt.Sprintf("v%d %s", v, form), edited, false); k != wantKey {
						t.Errorf("v%d %s: upload key %s, in-memory trace %s", v, form, k, wantKey)
					}
					edits++
				}
				if v == 3 {
					decoders["OpenFile+Ingest"] = func() (*trace.Trace, error) {
						r, err := trace.OpenFile(path)
						if err != nil {
							return nil, err
						}
						defer r.Close()
						return core.NewSession().Ingest(r, 0)
					}
				}
				for name, dec := range decoders {
					got, err := dec()
					if err != nil {
						t.Fatalf("v%d %s: %v", v, name, err)
					}
					checkTiles(t, fmt.Sprintf("v%d %s", v, name), got)
					if d := digest(t, got); d != want {
						t.Errorf("v%d %s: digest %s, in-memory trace %s", v, name, d, want)
					}
				}
			}
		})
	}
	if edits == 0 {
		t.Error("no workload has a stored access to write non-canonically")
	}
}

// checkTiles fails t unless every thread of tr has the table layout every
// builder gives it (trace.ThreadTrace.CheckLayout): the records' ranges tile
// the thread's Mem and Locks tables in order with no gaps.
func checkTiles(t *testing.T, from string, tr *trace.Trace) {
	t.Helper()
	for _, th := range tr.Threads {
		if err := th.CheckLayout(); err != nil {
			t.Fatalf("%s: %v", from, err)
		}
	}
}

// maxString is the codec's limit on the byte length of a .tft string.
const maxString = 1 << 20

// nonCanonical returns three hand edits of data, tr's encoding in version
// v, that the strict decoder still reads back as tr: the instr varint
// of tr's first stored access written overlong, its store byte written 2
// instead of 1, and its instr written 0x10000 too high, which the decoder's
// uint16 narrows away. Each must key like the canonical bytes. It returns
// nil if tr stores nothing.
func nonCanonical(tb testing.TB, tr *trace.Trace, v int, data []byte) map[string][]byte {
	tb.Helper()
	for i, th := range tr.Threads {
		for j := range th.Records {
			for k, m := range th.MemOf(j) {
				if !m.Store {
					continue
				}
				// Locate the fields by changing each in a copy and finding
				// the first byte where the encodings differ.
				at := func(change func(*trace.MemAccess)) int {
					c := cloneTrace(tr)
					change(&c.Threads[i].MemOf(j)[k])
					var buf bytes.Buffer
					if err := trace.Encode(&buf, c, v); err != nil {
						tb.Fatal(err)
					}
					n := 0
					for buf.Bytes()[n] == data[n] {
						n++
					}
					return n
				}
				instrAt := at(func(m *trace.MemAccess) { m.Instr ^= 1 })
				storeAt := at(func(m *trace.MemAccess) { m.Store = false })
				instr := binary.AppendUvarint(nil, uint64(m.Instr))
				overlong := append(bytes.Clone(instr), 0)
				overlong[len(instr)-1] |= 0x80
				return map[string][]byte{
					"overlong-varint": splice(data, instrAt, len(instr), overlong),
					"store-byte-2":    splice(data, storeAt, 1, []byte{2}),
					"instr-over-16":   splice(data, instrAt, len(instr), binary.AppendUvarint(nil, uint64(m.Instr)+1<<16)),
				}
			}
		}
	}
	return nil
}

// splice returns a copy of the .tft bytes data with data[at:at+n]
// replaced by repl, where at lies in a thread section and repl is at least
// n bytes. In a v3 file it also rewrites the index footer, whose layout is
// headerlen, nthreads, then {tid, offset, length, nrecords, nmem, nlocks}
// per thread, all uvarints, and the trailer (footer length as a
// little-endian uint64, then "TFXI"): the section holding at grows by the
// edit and every later section moves with it.
func splice(data []byte, at, n int, repl []byte) []byte {
	out := append(append(append([]byte(nil), data[:at]...), repl...), data[at+n:]...)
	if data[4] != 3 {
		return out
	}
	grow := uint64(len(repl) - n)
	footerLen := int(binary.LittleEndian.Uint64(data[len(data)-12:]))
	footer := data[len(data)-12-footerLen : len(data)-12]
	var vals []uint64
	for len(footer) > 0 {
		v, m := binary.Uvarint(footer)
		vals = append(vals, v)
		footer = footer[m:]
	}
	for e := 2; e+6 <= len(vals); e += 6 {
		off, length := &vals[e+1], &vals[e+2]
		if *off > uint64(at) {
			*off += grow
		} else if uint64(at) < *off+*length {
			*length += grow
		}
	}
	out = out[:len(out)-12-footerLen]
	var f []byte
	for _, v := range vals {
		f = binary.AppendUvarint(f, v)
	}
	out = append(out, f...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(f)))
	return append(out, "TFXI"...)
}

// digestGolden is testdata/digest_golden.json.
type digestGolden struct {
	Comment     string            `json:"_comment"`
	CacheSchema int               `json:"cache_schema"`
	Digests     map[string]string `json:"digests"`
}

const digestGoldenComment = "TraceDigest of every workload (8 threads, seed 1) and the cacheSchema " +
	"they were written under. Changing the bytes the digest hashes orphans every cached report, " +
	"so it must bump cacheSchema in internal/core/cache.go and regenerate this file on purpose: " +
	"go test ./internal/core -run TestTraceDigestGolden -update"

// TestTraceDigestGolden pins every workload's digest and the cache schema.
// A change to the hashed bytes that forgets the schema bump would serve
// reports cached under the old keys' meaning; this test refuses it.
func TestTraceDigestGolden(t *testing.T) {
	path := filepath.Join("testdata", "digest_golden.json")
	got := digestGolden{Comment: digestGoldenComment, CacheSchema: core.CacheSchema, Digests: make(map[string]string)}
	for _, w := range workloads.All() {
		got.Digests[w.Name] = digest(t, traceWorkload(t, w, 8))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d workloads)", path, len(got.Digests))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot (run with -update to create it): %v", err)
	}
	var want digestGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if want.CacheSchema != got.CacheSchema {
		t.Errorf("cacheSchema is %d, snapshot has %d: regenerate the snapshot with -update after the bump",
			got.CacheSchema, want.CacheSchema)
	}
	for name, d := range want.Digests {
		if g, ok := got.Digests[name]; !ok {
			t.Errorf("%s: in snapshot but not in workloads.All(); run -update if removed intentionally", name)
		} else if g != d {
			t.Errorf("%s: digest %s, snapshot %s: a change to the hashed bytes needs a cacheSchema bump and -update", name, g, d)
		}
	}
	for name := range got.Digests {
		if _, ok := want.Digests[name]; !ok {
			t.Errorf("%s: new workload missing from snapshot; run with -update", name)
		}
	}
}
