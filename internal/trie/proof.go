package trie

import (
	"bytes"
	"errors"
	"fmt"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// Merkle proofs: a proof for key K against root R is the list of node
// encodings on the path from the root to K. Anyone holding R can verify
// the value of K (or its absence) without the rest of the trie — how light
// clients check individual accounts against the state root a BlockPilot
// validator agreed on.

// Proof verification errors.
var (
	ErrProofMissingNode = errors.New("trie: proof is missing a node")
	ErrProofBadNode     = errors.New("trie: malformed proof node")
)

// Prove returns the proof for key: the RLP encodings of every node on the
// path from the root towards key, outermost first. The proof also proves
// absence (the path simply ends early).
func (t *Trie) Prove(key []byte) [][]byte {
	var proof [][]byte
	n := t.root
	nibbles := keybytesToNibbles(key)
	for {
		switch nd := n.(type) {
		case nil:
			return proof
		case *hashNode:
			n = resolved(t.db, nd)
		case *leafNode:
			proof = append(proof, encodeNode(nd))
			return proof
		case *extNode:
			proof = append(proof, encodeNode(nd))
			if len(nibbles) < len(nd.key) || !bytes.Equal(nd.key, nibbles[:len(nd.key)]) {
				return proof
			}
			nibbles = nibbles[len(nd.key):]
			n = nd.child
		case *branchNode:
			proof = append(proof, encodeNode(nd))
			if len(nibbles) == 0 {
				return proof
			}
			n = nd.children[nibbles[0]]
			nibbles = nibbles[1:]
		default:
			return proof
		}
	}
}

// VerifyProof checks a proof against a root hash and returns the proven
// value for key (nil if the proof demonstrates absence). The proof is the
// node list produced by Prove.
func VerifyProof(root [32]byte, key []byte, proof [][]byte) ([]byte, error) {
	nibbles := keybytesToNibbles(key)
	wantHash := root[:]
	embedded := []byte(nil) // when a child is embedded, its encoding directly

	for i := 0; ; i++ {
		var enc []byte
		if embedded != nil {
			enc = embedded
		} else {
			if i >= len(proof) {
				return nil, ErrProofMissingNode
			}
			enc = proof[i]
			if !bytes.Equal(crypto.Keccak256(enc), wantHash) {
				return nil, fmt.Errorf("%w: node %d hash mismatch", ErrProofBadNode, i)
			}
		}
		kind, content, rest, err := rlp.Split(enc)
		if err != nil || kind != rlp.KindList || len(rest) != 0 {
			return nil, fmt.Errorf("%w: node %d not a list", ErrProofBadNode, i)
		}
		elems, err := rlp.ListElems(content)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d: %v", ErrProofBadNode, i, err)
		}
		switch len(elems) {
		case 2: // leaf or extension
			pathContent, _, err := rlp.SplitString(elems[0])
			if err != nil {
				return nil, fmt.Errorf("%w: node %d path", ErrProofBadNode, i)
			}
			path, isLeaf := decodeHexPrefix(pathContent)
			if isLeaf {
				val, _, err := rlp.SplitString(elems[1])
				if err != nil {
					return nil, fmt.Errorf("%w: node %d value", ErrProofBadNode, i)
				}
				if bytes.Equal(path, nibbles) {
					return val, nil
				}
				return nil, nil // proves absence: path diverges at a leaf
			}
			// Extension.
			if len(nibbles) < len(path) || !bytes.Equal(path, nibbles[:len(path)]) {
				return nil, nil // absence: key leaves the trie here
			}
			nibbles = nibbles[len(path):]
			embedded, wantHash, err = childRef(elems[1])
			if err != nil {
				return nil, fmt.Errorf("%w: node %d child: %v", ErrProofBadNode, i, err)
			}
		case 17: // branch
			if len(nibbles) == 0 {
				val, _, err := rlp.SplitString(elems[16])
				if err != nil {
					return nil, fmt.Errorf("%w: node %d branch value", ErrProofBadNode, i)
				}
				if len(val) == 0 {
					return nil, nil
				}
				return val, nil
			}
			child := elems[nibbles[0]]
			nibbles = nibbles[1:]
			// An empty string child means the key is absent.
			if k, content, _, err := rlp.Split(child); err == nil && k == rlp.KindString && len(content) == 0 {
				return nil, nil
			}
			var err error
			embedded, wantHash, err = childRef(child)
			if err != nil {
				return nil, fmt.Errorf("%w: node %d child: %v", ErrProofBadNode, i, err)
			}
		default:
			return nil, fmt.Errorf("%w: node %d has %d elems", ErrProofBadNode, i, len(elems))
		}
		if embedded != nil {
			i-- // embedded node: stay on the same proof element
		}
	}
}

// childRef interprets a child slot: either a 32-byte hash (next proof node)
// or an embedded small node (returned directly).
func childRef(elem []byte) (embedded []byte, wantHash []byte, err error) {
	kind, content, _, err := rlp.Split(elem)
	if err != nil {
		return nil, nil, err
	}
	if kind == rlp.KindString {
		if len(content) != 32 {
			return nil, nil, fmt.Errorf("child hash of %d bytes", len(content))
		}
		return nil, content, nil
	}
	// Embedded node (< 32 bytes encoded): elem IS the node.
	return elem, nil, nil
}

// decodeHexPrefix undoes hexPrefix: returns the nibble path and whether the
// node is a leaf.
func decodeHexPrefix(b []byte) (nibbles []byte, isLeaf bool) {
	if len(b) == 0 {
		return nil, false
	}
	odd := b[0]>>4&1 == 1
	nibbles = make([]byte, 0, 2*len(b))
	if odd {
		nibbles = append(nibbles, b[0]&0x0f)
	}
	for _, c := range b[1:] {
		nibbles = append(nibbles, c>>4, c&0x0f)
	}
	return nibbles, isLeafPath(b)
}

// isLeafPath reads a hex-prefix path's leaf flag without decoding the path.
func isLeafPath(b []byte) bool { return len(b) > 0 && b[0]>>4 >= 2 }
