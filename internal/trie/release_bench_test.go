package trie

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// BenchmarkDatabaseRelease prices the prune at the shape the disk workload
// gives it: a 50 000-account trie of EOA leaves under hashed keys, nine
// chained versions of 1 000 random balance updates each, the oldest released.
// One iteration commits one more version (untimed) and releases the oldest
// (timed), so nine versions are live throughout. The two custom metrics divide
// by the nodes the release pruned, which is what a release is made of; ns/op
// is one whole release.
func BenchmarkDatabaseRelease(b *testing.B) {
	const accounts, updates, versions = 50000, 1000, 9
	db, err := OpenDatabase(filepath.Join(b.TempDir(), "state.db"), 16384)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	r := rand.New(rand.NewSource(1))
	key := func(i int) []byte {
		var a [8]byte
		binary.BigEndian.PutUint64(a[:], uint64(i))
		return crypto.Keccak256(a[:])
	}
	emptyCode := crypto.Keccak256(nil)
	account := func(balance uint64) []byte {
		return rlp.EncodeList(rlp.EncodeUint(1), rlp.EncodeUint(balance),
			rlp.EncodeString(EmptyRoot[:]), rlp.EncodeString(emptyCode))
	}
	tr := NewDB(db)
	var live [][32]byte // anchored roots, oldest first
	commit := func(keys, vals [][]byte) {
		tr.Batch(keys, vals)
		batch := db.NewBatch()
		root := batch.PersistTrie(tr)
		if err := batch.Commit(root); err != nil {
			b.Fatal(err)
		}
		live = append(live, root)
	}
	keys, vals := make([][]byte, accounts), make([][]byte, accounts)
	for i := range keys {
		keys[i], vals[i] = key(i), account(uint64(1e9+i))
	}
	commit(keys, vals)
	next := func() {
		keys, vals := make([][]byte, updates), make([][]byte, updates)
		for i := range keys {
			keys[i], vals[i] = key(r.Intn(accounts)), account(r.Uint64()>>8)
		}
		commit(keys, vals)
	}
	for len(live) < versions {
		next()
	}

	var dead, mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next()
		dels := db.Store().Stats().Dels
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if err := db.Release(live[0]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		dead += db.Store().Stats().Dels - dels
		live = live[1:]
		b.StartTimer()
	}
	b.StopTimer()
	if dead == 0 {
		b.Fatal("releases pruned nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dead), "ns/dead-node")
	b.ReportMetric(float64(mallocs)/float64(dead), "allocs/dead-node")
	b.ReportMetric(float64(dead)/float64(b.N), "dead-nodes/op")
}
