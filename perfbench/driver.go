package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/esdds"
	"repro/internal/chunk"
	"repro/internal/cipherx"
	"repro/internal/core"
	"repro/internal/disperse"
	"repro/internal/sdds"
	"repro/internal/transport"
)

// store is the surface the closed loop and the checks drive. Both
// *esdds.Store and *tracedStore implement it.
type store interface {
	Insert(ctx context.Context, rid uint64, content []byte) error
	Search(ctx context.Context, substring []byte, mode esdds.SearchMode) ([]uint64, error)
	Get(ctx context.Context, rid uint64) ([]byte, error)
	Delete(ctx context.Context, rid uint64) error
}

// tracedStore issues each operation as the same sequence of module
// calls esdds.Store makes, with keys derived the same way, and records
// a span around each call. It covers the configurations the workloads
// use: no Stage-2 codebook and no word index.
type tracedStore struct {
	cluster  *sdds.Cluster
	pipeline *core.Pipeline
	records  *cipherx.RecordCipher
	slotBits uint
	rec      *recorder
}

// openTraced mirrors esdds.Open for cfg over an sdds client.
func openTraced(cluster *sdds.Cluster, key esdds.Key, cfg esdds.Config, rec *recorder) (*tracedStore, error) {
	if cfg.SymbolCodes != 0 || cfg.ChunkCodes != 0 || cfg.WordSearch || cfg.DropPartialChunks {
		return nil, fmt.Errorf("traced driver: config %+v not supported", cfg)
	}
	if cfg.Chunkings == 0 {
		cfg.Chunkings = cfg.ChunkSize
	}
	if cfg.DispersionSites == 0 {
		cfg.DispersionSites = 1
	}
	kind, err := matrixKind(cfg.Matrix)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPipeline(core.Params{
		Chunk:      chunk.Params{S: cfg.ChunkSize, M: cfg.Chunkings},
		DisperseK:  cfg.DispersionSites,
		MatrixKind: kind,
		Key:        cipherx.DeriveKey(key, "index-file"),
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBucketLoad > 0 {
		cluster.SetMaxLoad(sdds.FileRecords, cfg.MaxBucketLoad)
		cluster.SetMaxLoad(sdds.FileIndex, cfg.MaxBucketLoad)
	}
	return &tracedStore{
		cluster:  cluster,
		pipeline: pl,
		records:  cipherx.NewRecordCipher(cipherx.DeriveKey(key, "record-file")),
		slotBits: sdds.SlotBits(pl.Chunkings(), pl.K()),
		rec:      rec,
	}, nil
}

func matrixKind(m esdds.MatrixKind) (disperse.MatrixKind, error) {
	switch m {
	case esdds.MatrixCauchy:
		return disperse.MatrixCauchy, nil
	case esdds.MatrixVandermonde:
		return disperse.MatrixVandermonde, nil
	case esdds.MatrixRandomDense:
		return disperse.MatrixRandomDense, nil
	case esdds.MatrixRandom:
		return disperse.MatrixRandom, nil
	}
	return 0, fmt.Errorf("unknown matrix kind %d", m)
}

// newTracedCluster builds the sdds client the way esdds.DialCluster
// does (pooled TCP, then the default retry policy), with spanTransport
// between the two so every attempt on the wire is a span.
func newTracedCluster(addrs []string, seed int64) (*sdds.Cluster, *transport.Retry, error) {
	ids := make([]transport.NodeID, len(addrs))
	dir := make(map[transport.NodeID]string, len(addrs))
	for i, a := range addrs {
		ids[i] = transport.NodeID(i)
		dir[ids[i]] = a
	}
	place, err := sdds.NewPlacement(ids)
	if err != nil {
		return nil, nil, err
	}
	rp := transport.DefaultRetryPolicy()
	rp.NoRetryOps = sdds.NonRetryableOps()
	retry := transport.NewRetry(&spanTransport{inner: transport.NewTCP(dir)}, rp, seed)
	return sdds.NewCluster(retry, place), retry, nil
}

func ridAD(rid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return b[:]
}

func (s *tracedStore) Insert(ctx context.Context, rid uint64, content []byte) error {
	ctx, t := s.rec.beginOp(ctx, opInsert, "esdds.insert")
	defer t.endOp()
	sp := t.start("cipherx.seal")
	sealed := s.records.Seal(ridAD(rid), content)
	t.end(sp)
	cctx, sp := t.startCtx(ctx, "sdds.put")
	err := s.cluster.Put(cctx, sdds.FileRecords, rid, sealed)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.start("core.build_index")
	recs, err := s.pipeline.BuildIndex(rid, content)
	t.end(sp)
	if err != nil {
		return err
	}
	t.countInsert(len(recs), indexBytes(recs))
	cctx, sp = t.startCtx(ctx, "sdds.insert_indexed")
	err = s.cluster.InsertIndexed(cctx, sdds.FileIndex, recs, s.pipeline.K(), s.slotBits)
	t.end(sp)
	return err
}

// indexBytes is the size of the dispersed pieces of an insert's index
// records.
func indexBytes(recs []core.IndexRecord) int {
	n := 0
	for _, r := range recs {
		for _, st := range r.Streams {
			n += 2 * len(st) // a disperse.Piece is 16 bits
		}
	}
	return n
}

func (s *tracedStore) Get(ctx context.Context, rid uint64) ([]byte, error) {
	ctx, t := s.rec.beginOp(ctx, opGet, "esdds.get")
	defer t.endOp()
	cctx, sp := t.startCtx(ctx, "sdds.get")
	sealed, ok, err := s.cluster.Get(cctx, sdds.FileRecords, rid)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, esdds.ErrNotFound
	}
	sp = t.start("cipherx.open")
	out, err := s.records.Open(ridAD(rid), sealed)
	t.end(sp)
	return out, err
}

func (s *tracedStore) Delete(ctx context.Context, rid uint64) error {
	ctx, t := s.rec.beginOp(ctx, opDelete, "esdds.delete")
	defer t.endOp()
	cctx, sp := t.startCtx(ctx, "sdds.delete")
	found, err := s.cluster.Delete(cctx, sdds.FileRecords, rid)
	t.end(sp)
	if err != nil {
		return err
	}
	if !found {
		return esdds.ErrNotFound
	}
	cctx, sp = t.startCtx(ctx, "sdds.delete_indexed")
	err = s.cluster.DeleteIndexed(cctx, sdds.FileIndex, rid, s.pipeline.Chunkings(), s.pipeline.K(), s.slotBits)
	t.end(sp)
	return err
}

func (s *tracedStore) Search(ctx context.Context, substring []byte, mode esdds.SearchMode) ([]uint64, error) {
	ctx, t := s.rec.beginOp(ctx, opSearch, "esdds.search")
	defer t.endOp()
	sp := t.start("core.build_query")
	query, err := s.pipeline.BuildQuery(substring, mode != esdds.SearchFast)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.countSearch(len(query.Series) * s.pipeline.K())
	cctx, sp := t.startCtx(ctx, "sdds.search")
	rids, err := s.cluster.Search(cctx, sdds.FileIndex, s.pipeline, query, verifyMode(mode))
	t.end(sp)
	return rids, err
}

func verifyMode(m esdds.SearchMode) core.VerifyMode {
	switch m {
	case esdds.SearchVerified:
		return core.VerifyAll
	case esdds.SearchExact:
		return core.VerifyAligned
	}
	return core.VerifyAny
}
