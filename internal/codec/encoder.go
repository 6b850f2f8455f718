package codec

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// encoder writes the DEFLATE stream of a deflate payload: plain RFC 1951,
// dynamic-Huffman blocks only, from level 6's match search less its cost
// on long matches (DESIGN.md, "The deflate encoder"). The stream is the
// runs of src between flat pages; positions count stream bytes, and runs
// maps those the window reaches back to src. Every table entry a search
// reads was written in the same Encode, so reuse does not change output.
type encoder struct {
	head          [1 << hashBits]uint32 // stream position + 1 of the latest string per hash; 0 is none
	prev          [windowSize]uint32    // by position: the position + 1 before it with the same hash
	runs          [maxRuns]span         // the latest runs, by run number mod maxRuns
	nruns         int
	pos           int               // stream position of the next run
	rep           int               // distance of the last match emitted
	toks          [maxTokens]uint32 // the block so far (see token)
	ntoks         int
	lit, dist, cl tree             // literal/length, distance and code-length codes
	lens          [286 + 30]uint8  // the block's code lengths in one sequence
	clSeq         [286 + 30]uint16 // and that sequence run-length coded: symbol | extra<<5
	keys          [286]uint32      // Huffman scratch: freq<<9 | symbol
	depth         [286]int32       // and the weights that become code lengths
	out           []byte
	bits          uint64
	nbits         uint
}

type tree struct { // a block's Huffman code: each symbol's count, length and code
	freq [286]uint32
	len  [286]uint8
	code [286]uint16
}

type span struct{ src, pos, n int } // a run: n bytes at src[src:], at stream position pos

const (
	windowSize = 1 << 15
	minMatch   = 4 // the hash covers 4 bytes, as level 6's does
	maxMatch   = 258
	maxChain   = 128 // level 6's chain, nice, lazy and good lengths
	niceMatch  = 128
	lazyMatch  = 16
	goodMatch  = 8
	skipAfter  = 32 // a longer match hashes only its last skipKeep positions
	skipKeep   = 3
	runTail    = 64 // hashed whatever covers it: the next run finds its matches there
	hashBits   = 16
	maxTokens  = 1 << 14 // per block, as level 6
	maxRuns    = 16      // runs but the last are whole pages: ≤ 9 overlap a window
	matchFlag  = 1 << 31
)

// stream appends to out the DEFLATE stream of the pages of src that bitmap
// does not mark flat.
func (e *encoder) stream(out, src, bitmap []byte) []byte {
	clear(e.head[:])
	e.nruns, e.pos, e.rep, e.out = 0, 0, 0, out
	for off := 0; off < len(src); off += pageSize {
		end := nextFlat(bitmap, off, len(src))
		if end > off {
			e.run(src, off, end)
		}
		off = end // and skip the flat page there
	}
	e.block(true)
	for ; e.nbits > 0; e.nbits -= min(e.nbits, 8) {
		e.out = append(e.out, byte(e.bits))
		e.bits >>= 8
	}
	out, e.out, e.bits = e.out, nil, 0 // don't retain dst
	return out
}

// run feeds src[start:end], the stream's next run, through level 6's lazy
// matcher: a match at i is taken only if the one at i+1 is no longer.
func (e *encoder) run(src []byte, start, end int) {
	e.runs[e.nruns%maxRuns] = span{start, e.pos, end - start}
	e.nruns++
	off := e.pos - start // stream position of src[i] is i+off
	e.pos += end - start
	prevLen, prevDist, pending := 0, 0, false
	for i := start; i < end; {
		curLen, curDist := 0, 0
		if i+minMatch <= end {
			cand := e.insert(src, i, i+off)
			if prevLen < lazyMatch {
				curLen, curDist = e.find(src, i, end, i+off, cand, prevLen)
			}
		}
		if prevLen >= minMatch && curLen <= prevLen {
			e.rep = prevDist
			e.token(matchFlag | uint32(prevLen-3)<<15 | uint32(prevDist-1))
			stop, from := i-1+prevLen, i+1 // src[i-1:stop] is the match; i-1 and i are hashed
			if prevLen > skipAfter {
				from = min(stop-skipKeep, max(from, end-runTail))
			}
			for j := from; j < min(stop, end-minMatch+1); j++ {
				e.insert(src, j, j+off)
			}
			i, prevLen, pending = stop, 0, false
			continue
		}
		if pending {
			e.token(uint32(src[i-1]))
		}
		pending, prevLen, prevDist = true, curLen, curDist
		i++
	}
	if pending {
		e.token(uint32(src[end-1]))
	}
}

// insert hashes src[i:i+4], at stream position pos, and returns the last
// position + 1 hashed to the same value, or 0.
func (e *encoder) insert(src []byte, i, pos int) uint32 {
	h := binary.LittleEndian.Uint32(src[i:]) * 0x1e35a7bd >> (32 - hashBits)
	cand := e.head[h]
	e.head[h] = uint32(pos + 1)
	e.prev[pos&(windowSize-1)] = cand
	return cand
}

// find returns the longest match for src[i:end], at stream position pos,
// longer than best: at the last match's distance, then along the chain
// from cand, nearest first. As in level 6, a 4-byte match further back
// than 4 KiB costs more than its literals and is passed over.
func (e *encoder) find(src []byte, i, end, pos int, cand uint32, best int) (n, dist int) {
	limit, best := min(maxMatch, end-i), max(best, minMatch-1)
	chain := maxChain
	if best >= goodMatch {
		chain >>= 2
	}
	if d := e.rep; d > 0 && d <= pos {
		if l := e.matchLen(src, i, limit, pos-d, best); l > best && (l > minMatch || d <= 4096) {
			n, dist, best = l, d, l
		}
	}
	near := i - e.runs[uint(e.nruns-1)%maxRuns].src // the farthest distance inside this run
	for last := 0; cand != 0 && chain > 0 && best < min(limit, niceMatch); chain-- {
		d := pos + 1 - int(cand)
		if d <= last || d > windowSize {
			break // out of the window, or a chain slot a later position took over
		}
		last, cand = d, e.prev[(int(cand)-1)&(windowSize-1)]
		if d == e.rep || d <= near && src[i-d+best] != src[i+best] {
			continue // tried already, or cannot beat best
		}
		if l := e.matchLen(src, i, limit, pos-d, best); l > best && (l > minMatch || d <= 4096) {
			n, dist, best = l, d, l
		}
	}
	return n, dist
}

// matchLen returns how many bytes, up to limit, src[i:] shares with the
// stream at position c, or 0 when that is no more than best. The bytes at
// c are read from c's run, and only up to its end.
func (e *encoder) matchLen(src []byte, i, limit, c, best int) int {
	r := &e.runs[uint(e.nruns-1)%maxRuns]
	for k := e.nruns - 1; c < r.pos; r = &e.runs[uint(k)%maxRuns] {
		if k--; k < max(e.nruns-maxRuns, 0) {
			return 0
		}
	}
	j := r.src + c - r.pos
	limit = min(limit, r.src+r.n-j)
	if best >= limit || src[i+best] != src[j+best] {
		return 0
	}
	a, b, n := src[i:i+limit], src[j:j+limit], 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && a[n] == b[n] {
		n++
	}
	return n
}

// token adds t, a literal byte or matchFlag|(length-3)<<15|(distance-1),
// to the block, and writes the block out once it is full.
func (e *encoder) token(t uint32) {
	if t < 256 {
		e.lit.freq[t]++
	} else {
		lc, _, _ := lengthSym(t >> 15 & 255)
		dc, _, _ := distSym(t & (windowSize - 1))
		e.lit.freq[257+lc]++
		e.dist.freq[dc]++
	}
	e.toks[e.ntoks] = t
	if e.ntoks++; e.ntoks == maxTokens {
		e.block(false)
	}
}

// block writes the tokens so far as one dynamic-Huffman block and starts
// the next.
func (e *encoder) block(final bool) {
	e.lit.freq[256]++ // end of block
	nlit := max(e.huffman(&e.lit, 286, 15), 257)
	ndist := e.huffman(&e.dist, 30, 15)
	seq := e.rleLengths(nlit, ndist)
	e.huffman(&e.cl, 19, 7)
	clOrder := [...]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} // RFC 1951's
	ncl := len(clOrder)
	for ncl > 4 && e.cl.len[clOrder[ncl-1]] == 0 {
		ncl--
	}
	hdr := uint64(2<<1 | (nlit-257)<<3 | (ndist-1)<<8 | (ncl-4)<<13) // BTYPE 10: dynamic Huffman
	if final {
		hdr |= 1
	}
	e.put(hdr, 17)
	for _, s := range clOrder[:ncl] {
		e.put(uint64(e.cl.len[s]), 3)
	}
	for _, x := range seq { // symbols 16, 17 and 18 take 2, 3 and 7 extra bits
		s := x & 31
		e.put(uint64(e.cl.code[s])|uint64(x>>5)<<e.cl.len[s], uint(e.cl.len[s]+[19]uint8{16: 2, 17: 3, 18: 7}[s]))
	}
	for _, t := range e.toks[:e.ntoks] {
		if t < 256 {
			e.put(uint64(e.lit.code[t]), uint(e.lit.len[t]))
			continue
		}
		l, d := t>>15&255, t&(windowSize-1)
		lc, lb, lx := lengthSym(l)
		dc, db, dx := distSym(d)
		e.put(uint64(e.lit.code[257+lc])|uint64(l-lb)<<e.lit.len[257+lc], uint(e.lit.len[257+lc])+uint(lx))
		e.put(uint64(e.dist.code[dc])|uint64(d-db)<<e.dist.len[dc], uint(e.dist.len[dc])+uint(dx))
	}
	e.put(uint64(e.lit.code[256]), uint(e.lit.len[256]))
	e.ntoks = 0
	clear(e.lit.freq[:])
	clear(e.dist.freq[:30])
}

// rleLengths returns the block's literal/length and distance code lengths
// as one sequence, run-length coded with symbols 16 (repeat the last length
// 3–6 times), 17 (3–10 zeros) and 18 (11–138 zeros), and counts its symbols.
func (e *encoder) rleLengths(nlit, ndist int) []uint16 {
	l := append(append(e.lens[:0], e.lit.len[:nlit]...), e.dist.len[:ndist]...)
	seq := e.clSeq[:0]
	clear(e.cl.freq[:19])
	emit := func(x uint16) {
		seq = append(seq, x)
		e.cl.freq[x&31]++
	}
	for i := 0; i < len(l); {
		v, run := l[i], 1
		for i+run < len(l) && l[i+run] == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18 | uint16(min(run, 138)-11)<<5)
			}
			if run >= 3 {
				emit(17 | uint16(run-3)<<5)
				run = 0
			}
		} else {
			emit(uint16(v))
			for run--; run >= 3; run -= min(run, 6) {
				emit(16 | uint16(min(run, 6)-3)<<5)
			}
		}
		for ; run > 0; run-- {
			emit(uint16(v))
		}
	}
	return seq
}

// huffman gives t's first n symbols a canonical Huffman code no longer than
// limit, and returns the number of symbols up to the last one coded. When
// fewer than two symbols occur, the lowest unused ones are coded too, so
// every code is complete: zlib refuses an incomplete code-length code. A
// code that would pass limit is built again from halved weights.
func (e *encoder) huffman(t *tree, n, limit int) int {
	freq, lens, codes := t.freq[:n], t.len[:n], t.code[:n]
	keys := e.keys[:0]
	for s, f := range freq {
		if f > 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	for s := 0; len(keys) < 2; s++ {
		if freq[s] == 0 {
			keys = append(keys, uint32(s))
		}
	}
	slices.Sort(keys)
	d := e.depth[:len(keys)]
	for shift := 9; shift == 9 || int(d[0]) > limit; shift++ { // d[0], the rarest, is the longest
		for k, key := range keys {
			d[k] = max(int32(key>>shift), 1)
		}
		minRedundancy(d)
	}
	clear(lens)
	var count, next [16]uint16
	for k, key := range keys {
		lens[key&511] = uint8(d[k])
		count[d[k]]++
	}
	for l := 2; l <= limit; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	n = 0
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
			n = s + 1
		}
	}
	return n
}

// minRedundancy replaces the ascending weights a, at least two of them,
// with the depths of an optimal prefix code: Moffat and Katajainen's
// in-place algorithm.
func minRedundancy(a []int32) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ { // join the two lightest trees or leaves
		sum := int32(0)
		for range 2 {
			if leaf >= n || root < next && a[root] < a[leaf] {
				sum, a[root] = sum+a[root], int32(next) // a root now points to its parent
				root++
			} else {
				sum += a[leaf]
				leaf++
			}
		}
		a[next] = sum
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth, next := 1, 0, int32(0), n-1
	for root = n - 2; avail > 0; avail, used, depth = 2*used, 0, depth+1 {
		for ; root >= 0 && a[root] == depth; root-- {
			used++
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
	}
}

// put writes the low n bits of v, n ≤ 32, LSB first.
func (e *encoder) put(v uint64, n uint) {
	e.bits |= v << e.nbits
	if e.nbits += n; e.nbits >= 32 {
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(e.bits))
		e.bits, e.nbits = e.bits>>32, e.nbits-32
	}
}

// lengthSym returns the symbol (past 256) that codes match length l+3, the
// l its extra bits count from, and their number (RFC 1951 §3.2.5).
func lengthSym(l uint32) (sym, base, extra uint32) {
	if l < 8 || l == 255 {
		return min(l, 28), l, 0 // 258 has a symbol of its own
	}
	extra = uint32(bits.Len32(l)) - 3
	return 4*extra + 4 + l>>extra&3, (4 | l>>extra&3) << extra, extra
}

// distSym returns the code of distance d+1, the d its extra bits count
// from, and their number.
func distSym(d uint32) (code, base, extra uint32) {
	if d < 4 {
		return d, d, 0
	}
	extra = uint32(bits.Len32(d)) - 2
	return 2*extra + 2 + d>>extra&1, (2 | d>>extra&1) << extra, extra
}
