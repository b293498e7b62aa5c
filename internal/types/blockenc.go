package types

import (
	"fmt"

	"blockpilot/internal/rlp"
)

// Full block wire/disk serialization: header, transactions and the
// BlockPilot profile round-trip through RLP, so blocks can be gossiped to
// real peers or persisted by the block store.

// DecodeHeader parses a header from its canonical RLP encoding.
func DecodeHeader(b []byte) (*Header, error) {
	content, rest, err := rlp.SplitList(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, rlp.ErrTrailing
	}
	h := &Header{}
	var s []byte
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header parent: %w", err)
	}
	h.ParentHash = BytesToHash(s)
	if h.Number, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("header number: %w", err)
	}
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header coinbase: %w", err)
	}
	h.Coinbase = BytesToAddress(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header state root: %w", err)
	}
	h.StateRoot = BytesToHash(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header tx root: %w", err)
	}
	h.TxRoot = BytesToHash(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header profile root: %w", err)
	}
	h.ProfileRoot = BytesToHash(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header receipt root: %w", err)
	}
	h.ReceiptRoot = BytesToHash(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header bloom: %w", err)
	}
	if len(s) != len(h.LogsBloom) {
		return nil, fmt.Errorf("header bloom is %d bytes", len(s))
	}
	copy(h.LogsBloom[:], s)
	if h.GasLimit, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("header gas limit: %w", err)
	}
	if h.GasUsed, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("header gas used: %w", err)
	}
	if h.Time, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("header time: %w", err)
	}
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("header extra: %w", err)
	}
	h.Extra = append([]byte(nil), s...)
	if len(content) != 0 {
		return nil, rlp.ErrTrailing
	}
	return h, nil
}

// AppendTo appends the full block to dst: [header, [tx, ...], profile].
// A block without a profile encodes an empty profile list.
func (b *Block) AppendTo(dst []byte) []byte {
	dst, list := rlp.StartList(dst)
	dst = b.Header.AppendTo(dst)
	dst, txs := rlp.StartList(dst)
	for _, tx := range b.Txs {
		dst = tx.AppendTo(dst)
	}
	dst = rlp.EndList(dst, txs)
	dst = b.Profile.AppendTo(dst)
	return rlp.EndList(dst, list)
}

// Encode serializes the full block.
func (b *Block) Encode() []byte { return encode(b) }

// DecodeBlock parses a full block from its canonical encoding. A block
// whose profile section is empty but which carries transactions is given a
// nil Profile (it came from a non-BlockPilot proposer).
func DecodeBlock(data []byte) (*Block, error) {
	content, rest, err := rlp.SplitList(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, rlp.ErrTrailing
	}
	elems, err := rlp.ListElems(content)
	if err != nil {
		return nil, err
	}
	if len(elems) != 3 {
		return nil, fmt.Errorf("block has %d sections, want 3", len(elems))
	}
	header, err := DecodeHeader(elems[0])
	if err != nil {
		return nil, fmt.Errorf("block header: %w", err)
	}
	txList, _, err := rlp.SplitList(elems[1])
	if err != nil {
		return nil, fmt.Errorf("block txs: %w", err)
	}
	n, err := rlp.CountItems(txList)
	if err != nil {
		return nil, err
	}
	blk := &Block{Header: *header}
	if n > 0 {
		blk.Txs = make([]*Transaction, n)
	}
	for i := range blk.Txs {
		_, _, rest, _ := rlp.Split(txList) // validated by the count
		if blk.Txs[i], err = DecodeTransaction(txList[:len(txList)-len(rest)]); err != nil {
			return nil, fmt.Errorf("block tx %d: %w", i, err)
		}
		txList = rest
	}
	profile, err := DecodeBlockProfile(elems[2])
	if err != nil {
		return nil, fmt.Errorf("block profile: %w", err)
	}
	if len(profile.Txs) > 0 || len(blk.Txs) == 0 {
		blk.Profile = profile
	}
	return blk, nil
}
